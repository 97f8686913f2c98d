"""Golden CLI outputs: the sha256 of stdout for fixed, deterministic calls.

A hash changes only when an output changes by a single byte, so this pins
the CLI's formatting and every value it prints.  Monte Carlo calls use the
default seed.  To re-record after an intended output change, print
``_digest(argv)`` for the affected calls and update their entries.
"""
import contextlib
import hashlib
import io

import pytest

from weylhull import cli

GOLDEN = [
    ("exact --family walk-B --steps 10 --dim 2",
     "a28d22d1c5db3a595d4979e4ff792f6c0693e3e32704c14d084c0ae9e92769ef"),
    ("exact --family walk-D --steps 12 --dim 3 --format json",
     "0763affa02537e4d8293203abc06b3f3262e29de949aebf6733b2d627ac5c236"),
    ("exact --family bridge-A --steps 9 --dim 2 --format csv",
     "3e89a39ba1da70107dc800085d4ab4daa0f5a0161791906908be8bd2ced7a0dd"),
    ("exact --family joint-B --steps 3,4 --dim 2 --format json",
     "c6ef1b1e4d92877f20968ce1f701dd1c105cdd9f3601b9301e158a8ff327e470"),
    ("exact --family walk-B --steps 100000 --dim 2 --float",
     "72603788f31b11d5d37249bd28576aa8a4f26409a884c1e6381cbfe7ad952c7b"),
    ("coeffs --type A --n 8",
     "6db45c02fe9e35cf11977a2f8cf302f953b42f8a13d13b39eaea4108255a5264"),
    ("coeffs --type B --n 60 --kmax 3 --format json",
     "fb7e8cd3d951a8c2db2f112945f9207766506fb2f8ec7c76a5b917c39d47a2e0"),
    ("coeffs --type D --n 7 --format csv",
     "3eb3e4be60f96d5c157758f7432157e3d3a20009587c5164dfdf0540cdbd2feb"),
    ("arrangement charpoly --type D --n 4 --format json",
     "a551bb6ad2c38621e7f0a7d3cf84dffb84b969a46c2a62110f6ba624c05cea66"),
    ("arrangement regions --type A --n 3",
     "3b33a48cd614f129922a501ff0ffea28549a005af7ea62844014522f5309cf3d"),
    ("arrangement intersect --type B --n 3 --codim 1 --format csv",
     "ae4449dd0eaf2296044659adf80b74e88e66be333d7d4c3e9c611220ade97f71"),
    ("cone volumes --type D --n 4 --format json",
     "61753cc3a80dac4db23b49378a903d19838ca1c3aaa19f1435188336eb4ecae6"),
    ("cone steiner --type D --n 4 --format csv",
     "ea9f739ac885c815c28577f4aba2d713a109e8716ad22a65cb13062aa349c9cc"),
    ("cone crofton --type B --n 3 --codim 2 --samples 20000 --format json",
     "94a610c71d02e61d0b6019520ab0f332c27bca944bb64589371825b5707bafed"),
    ("asympt --case A --regime fixed --d 2 --format csv",
     "dab06caa580b4391e23661e98fb6cb39f67e4d158ec2f2a5f7b156d69ca3abe2"),
    ("asympt --case B --regime clt --format json",
     "33b640f4935a19b7d4506bf783d8448404ca0e4d4db1f8422f7805957f6874e3"),
    ("asympt --case A --regime ld --x 2.0",
     "3324fe53a4acb15d0e94f8eefe231551f872f1aa89f148353125cc4e8c179b32"),
    ("asympt --case D --regime ld --x 0.5 --format csv",
     "73fcac24183728ea8f5a5bf70bc786bc6f68250d4c8dab036c97dd5971804e57"),
    ("simulate --model gaussian --family walk-B --steps 6 --dim 2 --samples 20000 --format json",
     "56332a00a8104ebf8abec1b0055b00871bd86ad79a189a2f2d1e7f7bd5d25617"),
    ("verify --suite combinatorics",
     "7f2ebcd570c91d05bc9b12f3ebe202fe63504b96da61faec667d7a4587f5e4da"),
]


def _digest(argv: str) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(argv.split()) == 0
    return hashlib.sha256(out.getvalue().encode()).hexdigest()


@pytest.mark.parametrize("argv, digest", GOLDEN, ids=[argv for argv, _ in GOLDEN])
def test_cli_stdout_matches_golden(argv, digest):
    assert _digest(argv) == digest
