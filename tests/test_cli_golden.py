"""Every subcommand's stdout, in both output forms, pinned by digest.

Each case runs ``cli.main`` on small fixed inputs, once printing the
s-expression and once with ``--json``, and pins the sha256 of stdout and the
exit code.  The cases with a nonzero exit code print a document too: a
membership left inconclusive (3) and a defect that was expected to be zero
(2).
"""

import hashlib

import pytest

from gerstenhaber.cli import main

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
