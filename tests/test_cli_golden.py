"""Every subcommand's stdout, in both output forms, pinned by digest.

Each case runs ``cli.main`` on small fixed inputs, once printing the
s-expression and once with ``--json``, and pins the sha256 of stdout and the
exit code.  The cases with a nonzero exit code print a document too: a
membership left inconclusive (3) and a defect that was expected to be zero
(2).  The ``--help`` text of the program and of each subcommand is pinned
the same way, at 80 columns.
"""

import hashlib
import os
import random
import sys

import pytest

from gerstenhaber.cli import main
from gerstenhaber.sexpr import parse_document, print_document
from gerstenhaber.starproduct import solve_maurer_cartan

INPUTS = {
    "pi1": "(cochain 2 (term 1 (0 0) (1 0) (0 1)) (term -1 (0 0) (0 1) (1 0)))",
    "field": "(cochain 2 (term 1 (1 0) (1 0)) (term -1/3 (0 2) (0 1)))",
    "mixed": "(cochain 2 (term 1 (0 0) (0 0) (0 0)) (term 2/5 (1 1) (1 0) (0 1)) (term -1 (2 0) (0 1)))",
    "second": "(cochain 2 (term 1 (0 0) (2 0)) (term 1/2 (1 0) (1 1)))",
    "f": "(poly 2 (term 1 (1 0)) (term -1/2 (0 2)))",
    "g": "(poly 2 (term 3 (1 1)) (term 1 (0 0)))",
    "deformation": (
        "(deformation 2\n"
        "  (order 3)\n"
        "  (pk 1 (term -1/2 (0 0) (0 1) (1 0)) (term 1/2 (0 0) (1 0) (0 1)))\n"
        "  (pk 2 (term 1/8 (0 0) (0 2) (2 0)) (term -1/4 (0 0) (1 1) (1 1))"
        " (term 1/8 (0 0) (2 0) (0 2))))\n"
    ),
    "broken": "(deformation 2 (order 2) (pk 1 (term -1/2 (0 0) (0 1) (1 0)) (term 1/2 (0 0) (1 0) (0 1))))",
}

# id -> argv, with input names in braces
CASES = {
    "cup": ["cup", "{field}", "{mixed}"],
    "bracket": ["bracket", "{field}", "{pi1}"],
    "delta": ["delta", "{second}"],
    "apply": ["apply", "{pi1}", "{f}", "{g}"],
    "weight": ["weight", "{mixed}"],
    "bigrade": ["bigrade", "{mixed}"],
    "member": ["member", "--weight=-3,-3", "--gen=-1,-1"],
    "member-inconclusive": ["member", "--weight=40,0", "--gen=1,0", "--gen=-1,0", "--cap=5"],
    "ideal-member": ["ideal-member", "{pi1}", "--gen=-1,-1", "--fold=1"],
    "project": ["project", "{mixed}", "--gen=-1,-1"],
    "theta": ["theta", "{mixed}", "--indices=1"],
    "theta-split": ["theta-split", "{mixed}", "--indices=2"],
    "filtration": ["filtration", "{mixed}"],
    "filtration-alpha": ["filtration", "{pi1}", "--alpha=-1,-1:1,1", "--mode=literal"],
    "mc-solve": ["mc-solve", "--pi1", "{pi1}", "--order", "3", "--check-assoc", "--assoc-trials", "2"],
    "star-apply": ["star-apply", "--deformation", "{deformation}", "{f}", "{g}"],
    "assoc-defect": ["assoc-defect", "--deformation", "{deformation}", "{f}", "{g}", "{f}"],
    "assoc-defect-expect-zero": ["assoc-defect", "--deformation", "{broken}", "--expect-zero", "{f}", "{g}", "{g}"],
    "verify-axioms": ["verify-axioms", "--seed", "4", "--trials", "2", "--law", "jacobi-identity",
                      "--law", "subgroup-criterion"],
}

# id -> (exit code, sha256 of the s-expression stdout, sha256 of the --json stdout)
EXPECTED = {
    "apply": (
        0,
        "8db3c55e24aba38674f472a1ccab11ea4f9267851ce5996fe14ba8ef20647878",
        "e06adf1d18ed933a44dc16ec7a4a72261eceb2514136da3b194d10d5f6c57d7e",
    ),
    "assoc-defect": (
        0,
        "14b551a5f0f01b8f96bf68b37770cae2adc3f1c9349cbeede820c3b34c52a6d3",
        "abbb6f441430c9b0a45960bc2e9bdc20949bb9c448c704e3b5f7d461b18bc001",
    ),
    "assoc-defect-expect-zero": (
        2,
        "f41cec6fd278d57c6a34648002fc5cc2f3260693c2b5f47a4d04131f3972e0f7",
        "2bb7d6486aa306639171c74038838915c71dda3cc3490734a03c9cd078448eda",
    ),
    "bigrade": (
        0,
        "0ae0d5c6a59d3e1f52a58f235e25fdaf1c745bbe1f442b11cdb381236840cb3d",
        "7c57bd5b7b225636a2d7479987e0cfc1841291bba84db2e7cbad1ad1ff0062b1",
    ),
    "bracket": (
        0,
        "96b3d9a7f0b014ca6a6e7a700184b23f534896cfb50febbea0313fc5e3da1c40",
        "33df330e500b4d4f03f4ce460466a78e4c0fc1e92919b07486a2c0aedc2fb75e",
    ),
    "cup": (
        0,
        "3b5024a5178a8616803b7a6e646bcdb2b3ae8c7728cdeeca65c16a223ca2aacc",
        "dd4e3160ec99f7a8fc8003c908f900554bef3d3d4ac7f058943f66f12116c29f",
    ),
    "delta": (
        0,
        "663dec09215b89d118d49cd4f09b446d37b8f2834b2065aecdec94f089309be8",
        "0c6ba79476e647d38558bfdd62b2dcbbed040371e2d2438dc89eee4d6e6bd74c",
    ),
    "filtration": (
        0,
        "0c1f63d1364a23df52b0f038bbd93c73c67b6a1e8a7c524fcfc95363425b7992",
        "cc0da1a9113a8adc9a4b92829cdecf7aa1b211ee3b2388b076723cd9a1493bbb",
    ),
    "filtration-alpha": (
        0,
        "b68043ef801d97f3768ca3c3258abf5f40e87534379ff6d9e63976dfd2f92959",
        "5bc70c5a0bbd6f596e132eb5c5b6ff6c6f00a250d89dccdbb55ad53d15441476",
    ),
    "ideal-member": (
        0,
        "2028f8622a1171e65010e725d66ce5d452b6d48a2525945c5becc61be9748023",
        "ff4bf6930326815571988f31ee85563dc1c034b4abfac000fae49f76b9d7c0cf",
    ),
    "mc-solve": (
        0,
        "d834cee60f432b728e95ede36167a487484bcd45e6be591c245c985ea414f0de",
        "62a30b8b59c8981cc0b4624f6d8b6efaa70cfb53ced511b3b3476ad82b6557f0",
    ),
    "member": (
        0,
        "89b5c6619596f08b5b10592bf1db3f9a338e026fc6dc5eac75a0ba8c01b530b0",
        "a43ff4a54c0a71a7cb25058b220278cbfd73e46d9fb7e6b7b8bd0fc00ad3a5ae",
    ),
    "member-inconclusive": (
        3,
        "534dcb531d870fcc680e364e7afc7a005c57c37e9ec2423efa170651a3cbacc8",
        "b92af6c14607f655750f9858ef1411461e02bb7e99f280abbb9f74073245d8cf",
    ),
    "project": (
        0,
        "7e3b4dbdb1c9052d2ef0c66998a6e00dd17414a34a6d7ed45b06eb37dc372381",
        "f092dd42736584af0861b4ae264d703b6030dc7cc1e72356dc26ca12a17f0f01",
    ),
    "star-apply": (
        0,
        "3a0615465560c008cb99f3e29fa614d0cc37cdaacdbdbffdb06aeebdd5ab2371",
        "fa03f3e64f8310411f491941e28b7881aed73e3d3962af24c085422f9a0895fd",
    ),
    "theta": (
        0,
        "efc468d1c6743c4df405507d894843e8ed0c3116d6e739b4b3c16980e313e4a1",
        "dfe3c07b0c541ae3d4abcabae9512af241909787f69c6f1eeb837c165c68044b",
    ),
    "theta-split": (
        0,
        "752953f1d0bcb977afcf2a9e5492832e3098cde31251d02f5d5844c564911414",
        "69e7d674f92eeba6487274c9aea72b0449721788175c46aab395633cecb5a5bf",
    ),
    "verify-axioms": (
        0,
        "42160e15a8fbe37a3e3fada8590dda9580387758f51a209fbf136bd0ce8bbf27",
        "22d8d8285f24dca441e02d8900cd731abeebaf0ee18dd834cbee9c8e83cf4a90",
    ),
    "weight": (
        0,
        "98774a12855e2fd0a42e6e5133b118e3c140c36e4ac5c2370d22713b9439d889",
        "28e2133a0b82fd201d5821b7b93d89edb5108404e4b06a9f7b21eb1517d91d8a",
    ),
}


@pytest.fixture
def paths(tmp_path):
    out = {}
    for name, text in INPUTS.items():
        path = tmp_path / f"{name}.sexp"
        path.write_text(text, encoding="utf-8")
        out[name] = str(path)
    return out


@pytest.mark.parametrize("as_json", [False, True], ids=["sexpr", "json"])
@pytest.mark.parametrize("case", sorted(CASES))
def test_cli_output_digest(paths, capsys, case, as_json):
    code, sexpr_digest, json_digest = EXPECTED[case]
    argv = [arg.format(**paths) for arg in CASES[case]]
    assert main(["--json", *argv] if as_json else argv) == code
    captured = capsys.readouterr()
    assert captured.err == ""
    assert hashlib.sha256(captured.out.encode()).hexdigest() == (json_digest if as_json else sexpr_digest)


def test_cli_kind_mismatch_message(paths, capsys):
    assert main(["delta", paths["f"]]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {paths['f']}: expected a cochain document, got poly\n"


# -- help text ---------------------------------------------------------------------

# invocation (the subcommand, or "gerst" for the top level) -> sha256 of its
# ``--help`` stdout at 80 columns
HELP_EXPECTED = {
    "gerst": "c2e78cde6577a314d635fb10266b284f79937347899c0082f8df9ff4d4ec6955",
    "cup": "8f12fb6bf551d405a58b88eb015c8204885b54ebe3e4ebf9eeac5f0b7f126478",
    "bracket": "c09f4ccd0b25739b6f1bfc8a02686c8c22284c6654ee68e891430a9857a38245",
    "delta": "16e7650867f7d613611ee6a379f25835a8c5053c2687df39a569bb4f08c26f62",
    "apply": "4d49a5026eadd8f1e33356f3b5d81b2c999c21a4c9eef18cb6ef294d69fd5846",
    "weight": "bf727c0a192a0596eb449034b9c13aa3400cc32d9dfbf845b744022468813ca3",
    "bigrade": "3a5704fd5e740a61a89f02a55c0b070118587eeb2b5b8b77de9bbfcc9218498d",
    "member": "3a5a6054464db5c7fdef52906ef9dfd8f5908ba4c6abab59b9a5108d939d847f",
    "ideal-member": "99f81d500ad4420d6f5013ac4c0e0810dd9100359add935ac7bf8718ea11d864",
    "project": "d739960bf197157faa73c7e0a9f106abbcaea0f97916fd930ab3c29de0f0abb9",
    "theta": "d54957514570d9a60cc3fe4593f728189ebf645a6cc579b8280231b833d88274",
    "theta-split": "9d0dc0eb7b8b1cd9938a6cfa40621f9da5f026acbb9fcda5e4a4685e28c1c3e3",
    "filtration": "055c86e128e1515cbf39de3d5bfbaa586c6d6a275a25a88cda76d8385b967ff4",
    "mc-solve": "7f079d7b4f021afae78393b28c9c6208a66de7f302f6fcb2c925439b4f96d4f8",
    "star-apply": "ad2a1ac91a9a0e96569230e1e74c646a34d073c67df2f84c1a9be1b435eb5a28",
    "assoc-defect": "6675b24503ec766ab00609cde0e68f2d99fadbb5dcd1a77024c12da5250c95f9",
    "verify-axioms": "f0bce7b23485176125fc8ca0f1b3928d601e6dc11804fae5c011a4c4ada908d1",
}


@pytest.mark.skipif(sys.version_info[:2] != (3, 11), reason="argparse help wording and layout vary by Python version")
def test_cli_help_digest(capsys, monkeypatch):
    """``gerst --help`` and every ``gerst <command> --help`` print what they
    printed before, byte for byte: the subcommands, their order, help and flags."""
    monkeypatch.setenv("COLUMNS", "80")
    got = {}
    for name in HELP_EXPECTED:
        with pytest.raises(SystemExit) as exit_info:
            main(["--help"] if name == "gerst" else [name, "--help"])
        assert exit_info.value.code == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        got[name] = hashlib.sha256(captured.out.encode()).hexdigest()
    assert got == HELP_EXPECTED


# -- large documents ------------------------------------------------------------


def big_cochain_text(seed: int = 1212, keys: int = 3000) -> str:
    """A seeded dimension-2 cochain document of several thousand term records.

    Arities 0 to 3; coefficients written as unreduced fractions, integers and
    signed integers.  About one key in six appears two or three times, and one
    in twelve appears as a pair of opposite records that cancel to zero.
    """
    rng = random.Random(seed)
    records = []
    for _ in range(keys):
        indices = [(rng.randint(0, 6), rng.randint(0, 6))]
        indices += [(rng.randint(0, 4), rng.randint(0, 4)) for _ in range(rng.randint(0, 3))]
        key = " ".join(f"({a} {b})" for a, b in indices)
        roll = rng.random()
        if roll < 1 / 12:
            num, den = rng.randint(1, 9), rng.randint(1, 12)
            records += [f"(term {num}/{den} {key})", f"(term -{2 * num}/{2 * den} {key})"]
            continue
        for _ in range(rng.choice((2, 3)) if roll < 3 / 12 else 1):
            num, den = rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 12)
            coeff = rng.choice((f"{num}/{den}", f"{num}", f"+{abs(num)}" if num > 0 else f"{num}/1"))
            records.append(f"(term {coeff} {key})")
    rng.shuffle(records)
    return "(cochain 2\n  " + "\n  ".join(records) + ")\n"


BIG_CASES = {
    "theta": ["theta", "{big}", "--indices=1,2"],
    "bigrade": ["bigrade", "{big}"],
    "weight": ["weight", "{big}"],
    "project": ["project", "{big}", "--gen=0,-1", "--gen=-1,0", "--gen=-1,-1", "--cap=64"],
}

# id -> (sha256 of the s-expression stdout, sha256 of the --json stdout)
BIG_EXPECTED = {
    "bigrade": (
        "c7e3baa6f7122800d7bd5f1d26bf2b25cbbb422c95ef61466004765b517adcd3",
        "91e6a7f44519bd882b6b3efcd51ebed3d82a4e36b1085f18582780a5d427b80d",
    ),
    "project": (
        "4cceb27927fdc59b43b025a06fbaa763f524478e441bd815582593e2765dc8da",
        "9056b6ae997c2feb651c2f175926b2e3e23031330f9f124844efdfa9e4632c40",
    ),
    "theta": (
        "6fc9f2e5d747451fd435539cc26b58b9f4824d2776f2b2fd73272ecd33be7a72",
        "7b298ce7abfaaf3a46d49be8b7a1115e81f7387d80afaf77a342efb243acbb2b",
    ),
    "weight": (
        "6e07875608e067315bc4b9aeccbc2d7c0e5d3dc524421dcf7d544e6f13c8973e",
        "0c48322a1e76a3d19bbe91adf8442f1b80d56b71a0335e6a56bfbd826612da75",
    ),
}


@pytest.fixture(scope="module")
def big_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("big") / "big.sexp"
    path.write_text(big_cochain_text(), encoding="utf-8")
    return str(path)


@pytest.mark.parametrize("as_json", [False, True], ids=["sexpr", "json"])
@pytest.mark.parametrize("case", sorted(BIG_CASES))
def test_cli_large_document_digest(big_path, capsys, case, as_json):
    """Byte-identical output on a document of several thousand records with
    duplicate, cancelling and unreduced terms."""
    argv = [arg.format(big=big_path) for arg in BIG_CASES[case]]
    assert main(["--json", *argv] if as_json else argv) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert hashlib.sha256(captured.out.encode()).hexdigest() == BIG_EXPECTED[case][as_json]


# -- the benchmark's law suites ---------------------------------------------------

# law seed -> sha256 of the s-expression stdout of `verify-axioms --seed S --trials 50`
LAW_SUITE_EXPECTED = {
    5: "b609a52fcad8565034a4cd4fa0af865361cf13d97ff604ee736ddaf19f2935ac",
    6: "57e87a0f5e6426bad3cd17454859070693af2b2e82153c199f116ce2cb692ded",
}


@pytest.mark.parametrize("seed", sorted(LAW_SUITE_EXPECTED))
def test_cli_law_suite_digest(capsys, seed):
    """The full 50-trial law suites report byte for byte what they reported
    before: every law passes with the same check counts."""
    assert main(["verify-axioms", "--seed", str(seed), "--trials", "50"]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert hashlib.sha256(captured.out.encode()).hexdigest() == LAW_SUITE_EXPECTED[seed]


@pytest.mark.parametrize("usable", [1, 2])
def test_cli_law_suite_digest_on_one_and_two_cpus(capsys, monkeypatch, usable):
    """The same digests whether the law suites run in one process or are
    shared with a forked child (``run_laws`` forks only where two CPUs are usable)."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(usable)), raising=False)
    for seed in sorted(LAW_SUITE_EXPECTED):
        test_cli_law_suite_digest(capsys, seed)


# -- evaluation at the benchmark's scale --------------------------------------------

# x-exponent of each unit bivector x^a (d1 (x) d2 - d2 (x) d1).
BIVECTOR_X = {"const": (0, 0), "x1": (1, 0), "x1x2": (1, 1)}
EVAL_ORDER = 4


def eval_polynomial_text(label: str, size: int = 14) -> str:
    """A polynomial of ``size`` distinct terms of total degree 8 to 14, its
    exponents and coefficients fixed by ``label``."""
    rng = random.Random(f"eval:{label}")
    exponents: list = []
    while len(exponents) < size:
        d = 8 + len(exponents) % 7
        a = rng.randint(0, d)
        if (a, d - a) not in exponents:
            exponents.append((a, d - a))
    records = [f"(term {rng.choice((-3, -2, -1, 1, 2, 3))}/{rng.randint(1, 4)} ({a} {b}))" for a, b in exponents]
    return "(poly 2\n  " + "\n  ".join(records) + ")\n"


@pytest.fixture(scope="module")
def eval_paths(tmp_path_factory):
    """Per bivector: its order-4 deformation, solved here, and that
    deformation's top coefficient as a cochain document; plus ``f`` and ``g``."""
    root = tmp_path_factory.mktemp("eval")
    texts = {"f": eval_polynomial_text("f"), "g": eval_polynomial_text("g")}
    for key, (a, b) in BIVECTOR_X.items():
        pi1 = parse_document(f"(cochain 2 (term 1 ({a} {b}) (1 0) (0 1)) (term -1 ({a} {b}) (0 1) (1 0)))")
        deformation = solve_maurer_cartan(pi1, EVAL_ORDER)
        texts[key] = print_document(deformation)
        texts[f"{key}_top"] = print_document(deformation.coefficient(EVAL_ORDER))
    out = {}
    for name, text in texts.items():
        path = root / f"{name}.sexp"
        path.write_text(text, encoding="utf-8")
        out[name] = str(path)
    return out


EVAL_CASES = {
    **{f"star-apply-{key}": ["star-apply", "--deformation", f"{{{key}}}", "{f}", "{g}"] for key in BIVECTOR_X},
    **{f"apply-{key}": ["apply", f"{{{key}_top}}", "{f}", "{g}"] for key in BIVECTOR_X},
}

# id -> (sha256 of the s-expression stdout, sha256 of the --json stdout)
EVAL_EXPECTED = {
    "apply-const": (
        "8ed5e3fd601401c19b61390b8e84165b85f0a8e6717b1166138cb13428902452",
        "277ff61c11654948e6acbc0f9d171cb1836318f2c2456e2456cb4fc7c814ace1",
    ),
    "apply-x1": (
        "379391896abb3c1e1c9ee57e7ac79e4add5ccfa3b08d77f86f3bae45f0660876",
        "e992f38b3bc571ffd6709fb28577c53083638481ea977a4578a8589a65fd06c4",
    ),
    "apply-x1x2": (
        "3a607c29692cf32b18bd12ac1e0b04507d6b6bc2858ffa7480a676f98ac78d91",
        "d2652b3245e9c0cf2ccc04a074495f1591704530f8206ab4eeb9c4dd5176bec9",
    ),
    "star-apply-const": (
        "a0d6c6af9967fe12b9cacc1d36daaea9aff30d10d0e28a8a9855bd2059167800",
        "478d758cf7af0f9b240e2626c70f17524751cdc1f0e545d55d41c279954d5521",
    ),
    "star-apply-x1": (
        "d002e8f50b653aa7721337af55d5a59474e115f2c9440517e5475ac15350e70b",
        "fd0ae2d8047f33ff58821401c62d5318de263bdff470f19c8ed632e3abc549c7",
    ),
    "star-apply-x1x2": (
        "2cf8b68e20822ff9314601022ba9b77ff47c3579c63eb28194b1ebadee987365",
        "04fa7908be72b20b925e160af7749b17d793413d6818cfd6c312f74c692655aa",
    ),
}


@pytest.mark.parametrize("as_json", [False, True], ids=["sexpr", "json"])
@pytest.mark.parametrize("case", sorted(EVAL_CASES))
def test_cli_evaluation_digest(eval_paths, capsys, case, as_json):
    """Byte-identical evaluation of degree 8-14 polynomials under solved
    order-4 deformations, the inputs of the benchmark's evaluation jobs at a
    lower order."""
    argv = [arg.format(**eval_paths) for arg in EVAL_CASES[case]]
    assert main(["--json", *argv] if as_json else argv) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert hashlib.sha256(captured.out.encode()).hexdigest() == EVAL_EXPECTED[case][as_json]
