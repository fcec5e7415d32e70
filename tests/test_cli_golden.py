"""Golden corpus of the command-line interface.

Each entry is an argv, the exit code it gives and the sha256 of everything it
prints on standard output.  The hashes were recorded before the subcommands
were moved onto one output path; the output of every command must keep them
byte for byte.  `{nonsimple}` stands for a JSON file holding a configuration
with a loop, which is not simple.
"""

import hashlib

import pytest

from bracketforge.cli import main

NONSIMPLE = '{"d": 4, "lines": [[1, 2, 3]], "loops": [4], "parallel": []}'

CORPUS = [
    (["describe", "--config", "pappus"], 0,
     "161eecfaae6a226e615a3a86f07a7951adcb94cfcb3ee75d38c1ec13e601a31f"),
    (["describe", "--config", "pappus", "--pretty"], 0,
     "ed55b477e321dae62f4eff43dcf86ca669af80db2550000eb960ec60e26e0148"),
    (["describe", "--config", "three-concurrent"], 0,
     "eb94738319bab5db5325e9b9f45284ee7cc4235df9a5b5d4ec6e639588eabfb9"),
    (["describe", "--config", "no-such-thing"], 1,
     "07a2ee53990e250aed37951db4c86cbbcd83b00b2bd865998b0a64cdb5208d38"),
    (["describe", "--config", "line:x"], 1,
     "be4b087bbbd0a71e1f9e7c4d3e5932e0954cb40765d5653876edf9f69a47b0a2"),
    (["cactus-check", "--config", "cactus14"], 0,
     "b3ca5a9614e65046ca59f0b463af0cc49e0dc0bd322e675dc5f36fb74dd282bb"),
    (["cactus-check", "--config", "pappus", "--pretty"], 0,
     "d918a76f7571fd6be2aa55c54e72e0e26f4d29b067a198f515d2f124e4fad1b5"),
    (["ordering", "--config", "cactus14"], 0,
     "c24f6bf9861ef1ad333c6f15577b159bfffc18a434b6ed4a6e9932b5ff4e4093"),
    (["ordering", "--config", "pappus"], 0,
     "7cd4329f6a26b774cfb5028d65760e1f2e8705884c72a5549efc7b04078f8275"),
    (["lift-matrix", "--config", "qs"], 0,
     "d9536d5663dedfd4f0e83a17f6002b0e698d8b18e3ec7f5ea1bc0dd53db0eb85"),
    (["lift-matrix", "--config", "pappus", "--pretty"], 0,
     "0997be51002afae9216a4090e7985a577414147bec62a0275d6f6d7cb40adfde"),
    (["lift-matrix", "--config", "line:30"], 0,
     "d9529b3b41d96a0453d17091423a562178eb72da7b491c7a3b300eae4ad67ae1"),
    (["generators", "--config", "pascal"], 0,
     "9c209b14800e1a46771383e11cab217732eeb5ce2a2ff04d6eacf310605da804"),
    (["generators", "--config", "pascal", "--count-only"], 0,
     "0b6836227784259e9f40a429ded1fc64833aa2162d84006d13503939a2b2b4ac"),
    (["generators", "--config", "pappus", "--family", "gc", "--limit", "3", "--pretty"], 0,
     "35725c034f0223869e8d76c23d83cd527f2cf7ffe1eecb9dc4d8e65208138ddf"),
    (["generators", "--config", "qs"], 0,
     "6dfbb8d2be79004cfea6d6d113bcb381bce13f509013f55db1f1d3387325a301"),
    (["generators", "--config", "cycle:4:4", "--depth", "1"], 0,
     "ae7cbdc4f7dd63ba5603b29470561c62fe0a8056408ebddc5fbe3a31217dd789"),
    (["generators", "--config", "line:5", "--family", "lifting"], 0,
     "57eb3efabf1c10c7c8655a0ec4609e1b19bb609150d9174b06500d2baf85d385"),
    (["generators", "--config", "fano", "--family", "circuit"], 0,
     "a43db9a2a614949042ee3f33eafbd2bff098508330198bb879c48db8052e9f8c"),
    (["generators", "--config", "fano"], 1,
     "e349dd18d4ae88baa46359afe371071858f0d4730d4ccd562b482d9733748cfc"),
    (["generators", "--config", "pascal", "--family", "lifting", "--limit", "0"], 0,
     "54b456ea28011cd5dd953b1df3d58b12ad1de087e276bba23a045d1bf17343ab"),
    (["generators", "--config", "pascal", "--limit", "-1"], 2,
     "fc14134d2de9a54fdffc2770a81dba97723ee24ea84d023c2990b76360314584"),
    (["generators"], 2,
     "3f5e66d3b9d53d87c344821fad67e2ec455f029622a06cfcfa11be629626376a"),
    (["verify", "--samples", "1", "--limit", "3"], 1,
     "c9669d8c75b2a5f0d8d598efb83e3d31cf221c8d16aa1799fb8ee9549fcfa693"),
    (["verify", "--samples", "0"], 2,
     "59b5cc899f36a26c88dbc524f163eae1b97fdf8578922edd4507da3535f65ed9"),
    (["verify", "--config", "pascal"], 2,
     "0ef2d733ababa8486fa620adccd7b709c7f640d9f96a1527dce1192945789252"),
    (["decompose", "--config", "pappus"], 0,
     "9efa6bc78efe2cb1a03c2a26e02b0508030078a3acade3ce8a3362620324d208"),
    (["decompose", "--config", "qs"], 1,
     "e0de66e329a91809c36d7d3372c8bd7e7fa57188c79cde0e914b98f6432d33cc"),
    (["decompose", "--config", "cactus14", "--pretty"], 0,
     "0a5ab39d68263b820591a7e81cb93718fe0bf80ec67b9e5c1280f3f6a049420e"),
    (["decompose", "--config", "fano"], 1,
     "e0de66e329a91809c36d7d3372c8bd7e7fa57188c79cde0e914b98f6432d33cc"),
    (["replay-counterexample"], 0,
     "00e2fb3f3e323527f3529e7c7aae81ecb84114d5b38003e7a539bf409d96571c"),
    (["replay-counterexample", "--depth", "2", "--pretty"], 0,
     "c9663b724f78d05b6f7144e417e963a2310cb78edcea748ffac53984d6c7f2fb"),
    ([], 2,
     "8aaa3721b8916039d57eea5e59337eaf7e546e66c5440bfb1a35a30939ac003a"),
    (["no-such-command"], 2,
     "0270a7315a274c6c646218d30179f20503268eeb45510000b8e6c2b63b003881"),
    (["describe", "--config", "{nonsimple}"], 0,
     "d79f639e8aa5658df41f4032769c4722ac0db57c48b07ab2db142d1dc5108bc9"),
    (["lift-matrix", "--config", "{nonsimple}"], 1,
     "9ee3dab291617121cdccfaacbcf811a6cfb659954ebae5292c62ac314454d9e9"),
    (["generators", "--config", "{nonsimple}", "--family", "gc"], 1,
     "9ee3dab291617121cdccfaacbcf811a6cfb659954ebae5292c62ac314454d9e9"),
]


@pytest.mark.parametrize("argv,code,digest", CORPUS, ids=[" ".join(a) or "<none>" for a, _, _ in CORPUS])
def test_cli_golden(tmp_path, capsys, argv, code, digest):
    path = tmp_path / "nonsimple.json"
    path.write_text(NONSIMPLE)
    assert main([a.replace("{nonsimple}", str(path)) for a in argv]) == code
    out, err = capsys.readouterr()
    assert hashlib.sha256(out.encode()).hexdigest() == digest
    assert err == ""
