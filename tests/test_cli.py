import hashlib
import json

import pytest

from magnuskit import magnus, wreath
from magnuskit.cli import main
from magnuskit.clf import CSV_HEADER
from magnuskit.groups import HeisenbergHandle, ZrHandle
from magnuskit.wreath import element_from_json
from magnuskit.words import FreeWord, commutator, gen, to_json


# the star word at k = 2: commutator loops two steps out along +-x1, +-x2
STAR2 = [a for x, y in ((1, 2), (-1, 2), (2, 1), (-2, 1)) for a in (x, x, x, y, -x, -y, -x, -x)]


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_eq_abelian_vs_metabelian(capsys):
    code, _, _ = run(capsys, "eq", "x1 x2", "x2 x1", "--r", "2", "--d", "1")
    assert code == 0
    code, _, _ = run(capsys, "eq", "x1 x2", "x2 x1", "--r", "2", "--d", "2")
    assert code == 1


def test_len_commutator(capsys):
    code, out, _ = run(capsys, "len", "x1 x2 x1^-1 x2^-1", "--r", "2", "--d", "2")
    assert code == 0
    assert out.strip() == "4 exact"


def test_len_abelianisation(capsys):
    code, out, _ = run(capsys, "len", "[1,2,-1,-2]", "--r", "2", "--d", "1")
    assert code == 0 and out.strip() == "0 exact"


def test_embed_kernel_word_gives_identity(capsys):
    # [c, x1^-1 c x1] with c = [x1, x2]: a nontrivial word in the second
    # derived subgroup, so its image at d=2 must be the identity
    c = commutator(gen(2, 1), gen(2, 2))
    word = commutator(c, gen(2, 1).inverse() * c * gen(2, 1))
    assert len(word) > 0
    code, out, _ = run(capsys, "embed", json.dumps(to_json(word)), "--r", "2", "--d", "2")
    assert code == 0
    data = json.loads(out)
    assert data["f"] == [] and data["b"] == [0, 0]


def test_embed_round_trip(capsys):
    code, out, _ = run(capsys, "embed", "x1 x2", "--r", "2", "--d", "2")
    assert code == 0
    data = json.loads(out)
    elem = element_from_json(data, ZrHandle(2), ZrHandle(2))
    assert elem.b == (1, 1)


def test_fox_command(capsys):
    code, out, _ = run(capsys, "fox", "x1 x2 x1^-1 x2^-1", "1", "--rank", "2")
    assert code == 0
    terms = json.loads(out)
    assert {tuple(t["elem"]): t["coeff"] for t in terms} == {(): 1, (1, 2, -1): -1}
    code, out, _ = run(
        capsys, "fox", "x1^3", "1", "--rank", "2", "--quotient", '{"kind":"Zr","r":2}'
    )
    assert code == 0
    terms = json.loads(out)
    assert {tuple(t["elem"]): t["coeff"] for t in terms} == {(0, 0): 1, (1, 0): 1, (2, 0): 1}


def test_conj_command(capsys):
    code, out, _ = run(capsys, "conj", "x1 x2 x1^-1", "x2", "--r", "2", "--d", "2")
    assert code == 0
    assert json.loads(out)["conjugate"] is True
    code, out, _ = run(capsys, "conj", "x1", "x2", "--r", "2", "--d", "2")
    assert code == 1
    assert json.loads(out)["conjugate"] is False
    code, out, _ = run(capsys, "conj", "x1", "x1 x1 x2 x1^-1 x2^-1", "--r", "2", "--d", "3")
    assert code == 1
    assert json.loads(out)["complete"] is True


def test_wreath_conj_command(capsys):
    u = json.dumps({"f": [{"at": [0], "val": [1]}], "b": [1]})
    v = json.dumps({"f": [{"at": [1], "val": [1]}], "b": [1]})
    code, out, _ = run(
        capsys,
        "wreath-conj",
        u,
        v,
        "--lamp",
        '{"kind":"Zr","r":1}',
        "--base",
        '{"kind":"Zr","r":1}',
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["conjugate"] and payload["witness_length_exact"]


S22_DESC = '{"kind":"free_solvable","r":2,"d":2}'


def _lamp_free(word):
    return json.dumps({"f": [], "b": {"word": word}})


def test_wreath_conj_inert_pair_over_free_solvable_base(capsys, monkeypatch):
    # lamp-free pairs are decided by conjugacy in S_{2,2}, not by a ball
    # scan: each level of the recursion tries at most one base part with
    # bz = zc, among at most |Supp f| candidates
    calls = []
    build = wreath.conjugator_for_z

    def counting(u, v, z):
        B = u.base
        calls.append(B.key(B.multiply(u.b, z)) == B.key(B.multiply(z, v.b)))
        return build(u, v, z)

    monkeypatch.setattr(wreath, "conjugator_for_z", counting)
    code, out, _ = run(
        capsys, "wreath-conj", _lamp_free([1, 1]), _lamp_free([1, 2]),
        "--lamp", '{"kind":"Zr","r":1}', "--base", S22_DESC,
    )
    # x1^2 and x1 x2 have different images in Z^2: the forms' two
    # candidates fail bz = zc
    assert code == 1 and len(calls) <= 2 and not any(calls)
    payload = json.loads(out)
    assert payload["complete"] is True and payload["case"] == "inert-base"
    code, out, _ = run(
        capsys, "wreath-conj", _lamp_free([1]), _lamp_free([-2, 1, 2]),
        "--lamp", '{"kind":"Zr","r":1}', "--base", S22_DESC,
    )
    assert code == 0 and sum(calls) <= 3
    witness = json.loads(out)["witness"]
    assert witness["f"] == [] and witness["b"]["word"] == [2]


def test_config_caps_reach_free_solvable_base(capsys, tmp_path):
    # v is u conjugated by the lamp (1 at q, e), q the star word at k = 2
    # (four commutator loops two steps out along the axes): the printed
    # witness length walks to q, and |q| joins five flow-support
    # components, more than travel_exact_max = 3 lets the path-TSP certify
    cfgfile = tmp_path / "cfg.json"
    cfgfile.write_text(json.dumps({"travel_exact_max": 3}))
    q = {"word": STAR2}
    lamps = [{"at": {"word": []}, "val": [1]}, {"at": q, "val": [1]}]
    u = {"f": lamps, "b": {"word": [1]}}
    A, B = ZrHandle(1), magnus.solvable_group(2, 2)
    gamma = element_from_json({"f": [{"at": q, "val": [1]}], "b": {"word": []}}, A, B)
    v = wreath.w_conjugate(element_from_json(u, A, B), gamma)
    argv = ["wreath-conj", json.dumps(u), json.dumps(wreath.element_to_json(v)),
            "--lamp", '{"kind":"Zr","r":1}', "--base", S22_DESC]
    code, out, _ = run(capsys, *argv)
    assert code == 0 and json.loads(out)["witness_length_exact"]
    code, _, err = run(capsys, "--config", str(cfgfile), *argv)
    assert code == 3 and "beyond-cap" in err


def test_text_format_is_rejected(capsys):
    code, _, _ = run(
        capsys, "--format", "text", "distortion", "--group", '{"kind":"Zr","r":2}',
        "--x", "x1", "--n-max", "2", "--seed", "1",
    )
    assert code == 2


def test_distortion_csv(capsys):
    code, out, _ = run(
        capsys,
        "distortion",
        "--group",
        '{"kind":"Zr","r":2}',
        "--x",
        "x1",
        "--n-max",
        "3",
        "--seed",
        "1",
    )
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "n,measured,bound,exact,witness_len,seed"
    assert lines[1].startswith("1,1,2,1,")


def test_distortion_of_a_finite_order_element_is_a_parse_error(capsys):
    # the powers of x1 in Z/6 never leave a ball, so delta is unbounded
    code, out, err = run(
        capsys, "distortion", "--group", '{"kind":"ZN","N":6}', "--x", "x1", "--seed", "1"
    )
    assert code == 2 and out == "" and "finite order" in err


def test_family_command(capsys):
    code, out, _ = run(
        capsys,
        "family",
        "--kind",
        "central",
        "--group",
        '{"kind":"Zr","r":2}',
        "--x",
        "x1",
        "--y",
        "x2",
        "--n-max",
        "2",
        "--seed",
        "3",
    )
    assert code == 0
    lines = out.strip().split("\n")
    rows = [line.split(",") for line in lines[1:]]
    assert all(int(m) >= int(b) for _, m, b, *_ in rows)


def test_family_command_over_the_heisenberg_centre(capsys):
    # delta(12) = 9 needs |(0, 0, m)| for m up to 338: the closed-form
    # metric answers at every radius
    code, out, _ = run(
        capsys, "family", "--kind", "central", "--group", '{"kind":"heisenberg"}',
        "--x", "[1,2,-1,-2]", "--y", "[1]", "--n-max", "12", "--seed", "1",
    )
    assert code == 0
    rows = [line.split(",") for line in out.strip().split("\n")[1:]]
    assert len(rows) == 12
    assert all(int(m) >= int(b) for _, m, b, *_ in rows)


FAMILY_ROWS = {
    ("z2", "x1", "x2"): "1,6,2,1,6,1 2,20,6,1,20,1 3,34,12,1,34,1 4,50,20,1,50,1 "
    "5,72,30,0,72,1 6,98,42,0,98,1",
    ("z2", "x2^-1", "x1"): "1,6,2,1,6,1 2,20,6,1,20,1 3,34,12,1,34,1 4,50,20,1,50,1 "
    "5,74,30,0,74,1 6,100,42,0,100,1",
    ("central", "x1", "x2"): "1,5,4,1,5,1 2,10,8,1,10,1 3,15,12,1,15,1 4,20,16,1,20,1 5,25,20,1,25,1",
    # the other six axis pairs the benchmark's z2 slots draw; rows at n >= 4
    # run path_tsp's heuristic branch
    ("z2", "x1", "x2^-1"): "1,6,2,1,6,1 2,20,6,1,20,1 3,34,12,1,34,1 4,50,20,1,50,1 "
    "5,72,30,0,72,1 6,96,42,0,96,1",
    ("z2", "x1^-1", "x2"): "1,6,2,1,6,1 2,20,6,1,20,1 3,34,12,1,34,1 4,50,20,1,50,1 "
    "5,72,30,0,72,1 6,96,42,0,96,1",
    ("z2", "x1^-1", "x2^-1"): "1,6,2,1,6,1 2,20,6,1,20,1 3,34,12,1,34,1 4,50,20,1,50,1 "
    "5,74,30,0,74,1 6,98,42,0,98,1",
    ("z2", "x2", "x1"): "1,6,2,1,6,1 2,20,6,1,20,1 3,34,12,1,34,1 4,50,20,1,50,1 "
    "5,74,30,0,74,1 6,100,42,0,100,1",
    ("z2", "x2", "x1^-1"): "1,6,2,1,6,1 2,20,6,1,20,1 3,34,12,1,34,1 4,50,20,1,50,1 "
    "5,74,30,0,74,1 6,100,42,0,100,1",
    ("z2", "x2^-1", "x1^-1"): "1,6,2,1,6,1 2,20,6,1,20,1 3,34,12,1,34,1 4,50,20,1,50,1 "
    "5,74,30,0,74,1 6,100,42,0,100,1",
}


@pytest.mark.parametrize("kind,x,y", list(FAMILY_ROWS))
def test_family_rows_are_pinned(capsys, kind, x, y):
    rows = FAMILY_ROWS[kind, x, y].split()
    code, out, _ = run(
        capsys, "family", "--kind", kind, "--group", '{"kind":"Zr","r":2}',
        "--x", x, "--y", y, "--n-max", str(len(rows)), "--seed", "1",
    )
    assert code == 0
    assert out == "\n".join(["n,measured,bound,exact,witness_len,seed", *rows]) + "\n"


HEIS_CENTRAL_ROWS = "1,0,0,1,0,1 2,0,0,1,0,1 3,0,0,1,0,1 4,8,4,1,8,1 5,8,4,1,8,1"


@pytest.mark.parametrize("x", ["x1 x2 x1^-1 x2^-1", "x2 x1 x2^-1 x1^-1"])
@pytest.mark.parametrize("y", ["x1", "x1^-1", "x2", "x2^-1"])
def test_heisenberg_central_rows_are_pinned(capsys, x, y):
    rows = HEIS_CENTRAL_ROWS.split()
    code, out, _ = run(
        capsys, "family", "--kind", "central", "--group", '{"kind":"heisenberg"}',
        "--x", x, "--y", y, "--n-max", str(len(rows)), "--seed", "1",
    )
    assert code == 0
    assert out == "\n".join(["n,measured,bound,exact,witness_len,seed", *rows]) + "\n"


def test_heisenberg_central_scan_norm_budget(capsys, monkeypatch):
    # travel reads each pair of points once (upper-triangle rows), so the
    # Heisenberg closed form runs no more often than one norm per pair
    calls = [0]
    norm = HeisenbergHandle.norm

    def counting(self, u):
        calls[0] += 1
        return norm(self, u)

    monkeypatch.setattr(HeisenbergHandle, "norm", counting)
    code, out, _ = run(
        capsys, "family", "--kind", "central", "--group", '{"kind":"heisenberg"}',
        "--x", "x1 x2 x1^-1 x2^-1", "--y", "x1", "--n-max", "8", "--seed", "1",
    )
    assert code == 0 and out.split()[-1] == "8,42,16,1,42,1"
    assert calls[0] <= 3401


def test_z2_family_builds_one_conjugator_per_scan(capsys, monkeypatch):
    # conjugators builds one conjugator per candidate, 13 of them; the
    # off-family check reads their base parts and the scan steps the first
    # at a power of y along <y>, and every support is sorted into cosets
    # once per element
    calls = {"conjugator_for_z": 0, "_coset_j": 0}

    def counting(name, fn):
        def wrapped(*args):
            calls[name] += 1
            return fn(*args)
        return wrapped

    build = counting("conjugator_for_z", wreath.conjugator_for_z)
    monkeypatch.setattr(wreath, "conjugator_for_z", build)
    monkeypatch.setattr(wreath, "_coset_j", counting("_coset_j", wreath._coset_j))
    code, out, _ = run(
        capsys, "family", "--kind", "z2", "--group", '{"kind":"Zr","r":2}',
        "--x", "[1]", "--y", "[2]", "--n-min", "6", "--n-max", "6", "--seed", "1",
    )
    assert code == 0 and out.split()[-1] == "6,98,42,0,98,1"
    assert calls["conjugator_for_z"] <= 13
    assert calls["_coset_j"] <= 1500


def test_clf_scan_command(capsys):
    code, out, _ = run(
        capsys,
        "clf-scan",
        "--lamp",
        '{"kind":"Zr","r":1}',
        "--base",
        '{"kind":"Zr","r":2}',
        "--samples",
        "5",
        "--n-max",
        "8",
        "--seed",
        "11",
    )
    assert code == 0
    lines = out.strip().split("\n")
    assert len(lines) == 6


# the README's clf-scan example: one row per sampled conjugate pair
README_CLF_ROWS = (
    "4,0,7980,1,0,7 0,0,0,1,0,7 6,3,24990,1,3,7 0,0,0,1,0,7 0,0,0,1,0,7 2,0,30,1,0,7 "
    "4,1,504,1,1,7 6,0,546,1,0,7 4,1,504,1,1,7 0,0,0,1,0,7 0,0,0,1,0,7 4,1,180,1,1,7 "
    "4,1,180,1,1,7 4,0,180,1,0,7 4,0,7980,1,0,7 10,4,108570,1,4,7 0,0,0,1,0,7 10,4,2310,1,4,7 "
    "6,0,24990,1,0,7 0,0,0,1,0,7 8,4,56952,1,4,7 0,0,0,1,0,7 2,0,30,1,0,7 2,0,30,1,0,7 "
    "2,0,30,1,0,7 6,1,546,1,1,7 0,0,0,1,0,7 4,1,180,1,1,7 6,0,24990,1,0,7 10,3,2310,1,3,7 "
    "0,0,0,1,0,7 10,3,108570,1,3,7 4,1,504,1,1,7 4,1,504,1,1,7 0,0,0,1,0,7 2,0,30,1,0,7 "
    "4,0,7980,1,0,7 8,5,1224,1,5,7 10,4,2310,1,4,7 2,0,30,1,0,7 6,2,1092,1,2,7 6,0,1092,1,0,7 "
    "6,3,546,1,3,7 0,0,0,1,0,7 4,0,180,1,0,7 4,1,180,1,1,7 4,1,504,1,1,7 6,0,24990,1,0,7 "
    "0,0,0,1,0,7 6,1,546,1,1,7"
)


def test_readme_clf_scan_rows_are_pinned(capsys):
    code, out, _ = run(
        capsys, "clf-scan", "--lamp", '{"kind":"Zr","r":1}', "--base", '{"kind":"Zr","r":2}',
        "--samples", "50", "--n-max", "10", "--seed", "7",
    )
    assert code == 0
    assert out == "\n".join([CSV_HEADER, *README_CLF_ROWS.split()]) + "\n"


def test_clf_scan_rejects_a_negative_n_max(capsys):
    # no pair has a negative length sum, so the draw loop would never end
    code, out, err = run(
        capsys, "clf-scan", "--lamp", '{"kind":"Zr","r":1}', "--base", '{"kind":"Zr","r":2}',
        "--samples", "5", "--n-max", "-1", "--seed", "11",
    )
    assert code == 2 and out == "" and "n_max" in err


def _s22(letters):
    return {"r": 2, "d": 2, "word": letters}


EMBED_D3_WORD = [-2, 1, 2, 2, -1, -2, 1, -2, -1, 2, 2, 1, -2, -1, -1]
EMBED_D4_WORD = [
    2, 2, 1, 2, -1, -2, -2, 1, 2, -1, 2, 1, -2, -1, -1, 2, 1, -2, 1, -2, -1, 2, 2, -1, -2, 1, -2, 1, 2,
    2, -1, -2, 1, -2, -1, 2, 2, 1, -2, -1, -1, 2, 1, -2, -2, 1, 2, -1, 2, -1, -2, 1, 1, -2, -1, 2, 1,
]
EMBED_OUTPUT = {
    2: {
        "f": [
            {"at": [-1, 1], "val": [-1, 0]},
            {"at": [0, 0], "val": [1, 0]},
            {"at": [0, 1], "val": [0, -1]},
            {"at": [0, 2], "val": [-1, 0]},
            {"at": [1, 0], "val": [0, 1]},
            {"at": [1, 1], "val": [0, 1]},
        ],
        "b": [-1, 1],
    },
    # the walk comes back to the class of x2^-1 after a prefix that is
    # trivial in S_{2,2}; each cell is printed at the prefix where it last
    # became nonzero, as in the product of the letters' forms
    3: {
        "f": [
            {"at": _s22(EMBED_D3_WORD), "val": [-1, 0]},
            {"at": _s22(EMBED_D3_WORD[:1]), "val": [1, -1]},
            {"at": _s22(EMBED_D3_WORD[:9]), "val": [-1, 1]},
            {"at": _s22(EMBED_D3_WORD[:14]), "val": [-1, 0]},
            {"at": _s22(EMBED_D3_WORD[:6]), "val": [1, -1]},
            {"at": _s22(EMBED_D3_WORD[:10]), "val": [0, 1]},
            {"at": _s22(EMBED_D3_WORD[:5]), "val": [-1, 0]},
            {"at": _s22(EMBED_D3_WORD[:11]), "val": [1, 0]},
            {"at": _s22(EMBED_D3_WORD[:2]), "val": [0, 1]},
            {"at": _s22(EMBED_D3_WORD[:8]), "val": [0, -1]},
            {"at": _s22(EMBED_D3_WORD[:3]), "val": [0, 1]},
            {"at": _s22(EMBED_D3_WORD[:13]), "val": [0, -1]},
        ],
        "b": _s22(EMBED_D3_WORD),
    },
    # 6,107 bytes, pinned by digest
    4: "4e1870a601bff7d09ebbe09659ae323560cd9eacc4456ccfda6e50b90524df52",
}


@pytest.mark.parametrize(
    "word,d",
    [("x1 x2^2 x1^-1 x2^-1 x1^-1", 2), (json.dumps(EMBED_D3_WORD), 3), (json.dumps(EMBED_D4_WORD), 4)],
)
def test_embed_output_is_pinned(capsys, word, d):
    code, out, _ = run(capsys, "embed", word, "--r", "2", "--d", str(d))
    assert code == 0
    if d == 4:
        assert hashlib.sha256(out.encode()).hexdigest() == EMBED_OUTPUT[d]
    else:
        assert out == json.dumps(EMBED_OUTPUT[d]) + "\n"


def test_parse_error_exit_code(capsys):
    code, _, err = run(capsys, "len", "y3", "--r", "2", "--d", "2")
    assert code == 2
    code, _, _ = run(capsys, "embed", "not json [", "--r", "2", "--d", "2")
    assert code == 2


def test_beyond_cap_exit_code(capsys):
    # two flow-support components 3 apart
    word = "x1 x2 x1^-1 x2^-1 x1^3 x2 x1 x2^-1 x1^-1 x1^-3"
    code, out, _ = run(capsys, "len", word, "--r", "2", "--d", "2")
    assert code == 0 and out.strip() == "12 exact"
    # q = c p c p^-1 in S_{2,3}, p the star word at k = 2 and c the depth-2
    # commutator [[x1, x2], [x1, x2^-1]]: its component distances are
    # star-shaped lengths in S_{2,2}, only bounded, so |q| is an upper bound
    # (flow 28 plus twice the true connection cost 30, which
    # test_magnus.py checks by brute force), and a wreath witness length
    # that walks to q exits 3
    x1, x2 = gen(2, 1), gen(2, 2)
    c = commutator(commutator(x1, x2), commutator(x1, x2.inverse()))
    star = FreeWord(2, STAR2)
    q = to_json(c * star * c * star.inverse())
    code, out, _ = run(capsys, "len", json.dumps(q), "--r", "2", "--d", "3")
    assert code == 0 and out.strip() == "88 upper-bound"
    lamps = [{"at": {"word": []}, "val": [1]}, {"at": {"word": q}, "val": [1]}]
    u = {"f": lamps, "b": {"word": [1]}}
    A, B = ZrHandle(1), magnus.solvable_group(2, 3)
    gamma = element_from_json({"f": [{"at": {"word": q}, "val": [1]}], "b": {"word": []}}, A, B)
    v = wreath.w_conjugate(element_from_json(u, A, B), gamma)
    code, _, err = run(capsys, "wreath-conj", json.dumps(u), json.dumps(wreath.element_to_json(v)),
                       "--lamp", '{"kind":"Zr","r":1}', "--base", '{"kind":"free_solvable","r":2,"d":3}')
    assert code == 3
    assert "beyond-cap" in err


def test_len_of_a_far_loop(capsys):
    # commutator loops 70, then 400 and 300 steps out: the distance between
    # two components is a Z^2 norm, however far apart they sit
    code, out, _ = run(capsys, "len", "x1^70 x2 x1 x2^-1 x1^-1 x1^-70", "--r", "2", "--d", "2")
    assert code == 0 and out.strip() == "144 exact"
    word = "x1^400 x2 x1 x2^-1 x1^-1 x1^-400 x2^300 x1 x2 x1^-1 x2^-1 x2^-300"
    code, out, _ = run(capsys, "len", word, "--r", "2", "--d", "2")
    assert code == 0 and out.strip() == "1408 exact"


def test_bad_json_exit_code(capsys):
    code, _, _ = run(capsys, "wreath-conj", "bad", "bad", "--lamp", "{}", "--base", "{}")
    assert code == 2


def test_conj_abelian_level(capsys):
    code, out, _ = run(capsys, "conj", "x1 x2", "x2 x1", "--r", "2", "--d", "1")
    assert code == 0 and json.loads(out)["conjugate"] is True


def test_config_file_and_json_format(capsys, tmp_path):
    cfgfile = tmp_path / "cfg.json"
    cfgfile.write_text(json.dumps({"travel_exact_max": 11}))
    code, out, _ = run(
        capsys,
        "--config",
        str(cfgfile),
        "--format",
        "json",
        "distortion",
        "--group",
        '{"kind":"Zr","r":2}',
        "--x",
        "x1",
        "--n-max",
        "2",
        "--seed",
        "3",
    )
    assert code == 0
    rows = json.loads(out)
    assert rows[0]["n"] == 1 and rows[0]["measured"] == 1
    assert all(list(row) == CSV_HEADER.split(",") for row in rows)


@pytest.mark.parametrize(
    "key", ["no_such_option", "jobs", "z_scan_slack", "bfs_cap", "walk_cost_cap", "seed", "walk_node_cap"]
)
def test_bad_config_key_is_parse_error(capsys, tmp_path, key):
    cfgfile = tmp_path / "cfg.json"
    cfgfile.write_text(json.dumps({key: 1}))
    code, _, err = run(capsys, "--config", str(cfgfile), "selftest", "--list")
    assert code == 2


@pytest.mark.parametrize(
    "text", ['{"travel_exact_max": "9"}', '{"travel_exact_max": null}', '{"travel_exact_max": 2.5}',
             '{"travel_exact_max": true}', '{"travel_exact_max": -1}', "[]", "[1]", '"x"', "9"],
)
def test_bad_config_value_is_parse_error(capsys, tmp_path, text):
    # a config that is not an object, or a threshold that is not a
    # non-negative integer, exits 2 before the command runs
    cfgfile = tmp_path / "cfg.json"
    cfgfile.write_text(text)
    code, out, err = run(capsys, "--config", str(cfgfile), "len", "x1 x2", "--r", "2", "--d", "2")
    assert code == 2 and out == "" and "parse error" in err


def test_toml_config_is_parse_error(capsys, tmp_path):
    # JSON is the one config format: a TOML file does not parse
    cfgfile = tmp_path / "cfg.toml"
    cfgfile.write_text("travel_exact_max = 11\n")
    code, _, err = run(capsys, "--config", str(cfgfile), "len", "x1 x2", "--r", "2", "--d", "2")
    assert code == 2 and "parse error" in err


@pytest.mark.parametrize("name", ["missing.json", "."])
def test_unreadable_config_is_parse_error(capsys, tmp_path, name):
    # a missing file or a directory: exit 2, not a traceback and exit 1
    code, _, err = run(capsys, "--config", str(tmp_path / name), "len", "x1 x2", "--r", "2", "--d", "2")
    assert code == 2 and "parse error: cannot read config file" in err


def test_selftest_rejects_unknown_check_names(capsys):
    code, out, err = run(capsys, "selftest", "--only", "fundamental-formula,no-such-check,other")
    assert code == 2
    assert "no-such-check" in err and "other" in err
    assert "PASS" not in out  # nothing ran


def test_selftest_single_check(capsys):
    code, out, _ = run(capsys, "selftest", "--only", "fundamental-formula")
    assert code == 0
    assert "PASS" in out and "fundamental-formula" in out


def test_selftest_list(capsys):
    code, out, _ = run(capsys, "selftest", "--list")
    assert code == 0
    assert "geodesic-formula-oracle" in out
