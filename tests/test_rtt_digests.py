"""One sha256 per (document, --rtt-bound, format) of ``verify`` on the pinch documents.

The documents of ``conftest.PINCH_TEXTS`` pass ``verify_representative``
and map endpoints of their top stratum to one vertex.  That stratum
passes injectivity at ``--rtt-bound`` 1 and fails from 2 on ``pinch_f3``
and ``pinch_ties`` and from 3 on ``pinch_c2f2``; on ``pinch_tree`` it
passes at every bound, because each collapsing connecting path leaves
the lower filtration.  The digests were
generated while a Dyck search over the edge images decided injectivity,
so they show that the pull-back through the declared inverse reports the
same, byte for byte.  A change that
alters this output on purpose regenerates them with
``PYTHONPATH=src python tests/test_rtt_digests.py`` and says so in
CHANGES.md.
"""

from __future__ import annotations

import hashlib
from pathlib import Path

import pytest
from click.testing import CliRunner

from conftest import PINCH_TEXTS
from outgrowth.cli import main

BOUNDS = (1, 2, 3)
FORMATS = ("text", "json", "csv")

DIGESTS = {
    ('pinch_f3', 1, 'text'): 'a163c5da90f2a0dec69fa8ec7842ad6facb2a9f810d3666c99df370352d04497',
    ('pinch_f3', 1, 'json'): '1936c0b25c2b108fdec065bfa25258730845ffe0b326c1835a709b09c2401a36',
    ('pinch_f3', 1, 'csv'): 'c746a62de04abf9881fe7f23da0842933bbec076e56a370c68cba0ae6eb413dd',
    ('pinch_f3', 2, 'text'): '4753c58ac8562be4b8349cc21e2178acbf50d5439ee5b806ae61531ce0234666',
    ('pinch_f3', 2, 'json'): '8635d1516892558154ce65a8020ac58a0cb3ee56334fc8cddd892af6bdcbfc6c',
    ('pinch_f3', 2, 'csv'): '930d8f175a024528a813b76fc47c179530d81951d960ab2a368ae3ac096dbff8',
    ('pinch_f3', 3, 'text'): 'adb311edc3007057d2a163e46c74836bea798a9525a5d92ea18026a6edbba441',
    ('pinch_f3', 3, 'json'): 'd05b1bd3a4bfe57e5d7dea05f8455093f50c06e80d5017f8fe961f46c82ebb5f',
    ('pinch_f3', 3, 'csv'): '6466473e4c1d48155d9f2cca6741146d65203c894ee3b0dea90a8315d6890748',
    ('pinch_c2f2', 1, 'text'): '1add210355bcb348f486aecc572a5730cd1b69fedbc3055fc7101dbd59b18550',
    ('pinch_c2f2', 1, 'json'): 'fcaf8e54255218a2a542e43410365c5bf5d5460a9b2d4972a7b625c044295a91',
    ('pinch_c2f2', 1, 'csv'): 'c00708435a15b1b9a33e291735f0fbf0c2a4e9980811ce0cc6928ddedc27c1d2',
    ('pinch_c2f2', 2, 'text'): '04b69826dcbd5439bef1984bcdebcc4cd678300e8740c1a4568ab431c06cacce',
    ('pinch_c2f2', 2, 'json'): '45038d41396ca6c38e4ef3f388279571713882f9f0921615f1f350e58581146f',
    ('pinch_c2f2', 2, 'csv'): '03557c77e6ca876bd585b4ddcdc9cabe67d85df9d708b1721d97b6a939110687',
    ('pinch_c2f2', 3, 'text'): 'a73ddc9fb16625c379967c8e6e91518119ae96e5a0f534bfcbea43f9069bca7a',
    ('pinch_c2f2', 3, 'json'): 'f37e3c2b257839ac2f2b4bc0e569788e3f1cf7dc7bb01df76e357cf611e5cc3b',
    ('pinch_c2f2', 3, 'csv'): '9a418427fb2d420f78d20719138d2cb9f8a63610f99ccb06a1a41a784833385b',
    ('pinch_ties', 1, 'text'): 'd6a6eeaac3e2b7c30617dc0e7fc940457a30291c6d6c859b5b523f5defb55f80',
    ('pinch_ties', 1, 'json'): '3e00e6265747615aa01cdc4990dc54452fb9969bbd0a26ea3ed4cd722efb57da',
    ('pinch_ties', 1, 'csv'): '2aa7c312087c9717f220d5fc08c780a2eae92e7db3267bb6b6f16442c534db32',
    ('pinch_ties', 2, 'text'): '1786b9b3b275ee404ee0b797fd8703ee8c03834b2745cbb9c0591d9de0a7a335',
    ('pinch_ties', 2, 'json'): 'aceb9efdfbfe3ad7016eafcbdcde4167e31bf26e2e4b0bba7987970986a1d7c5',
    ('pinch_ties', 2, 'csv'): '2bda2cec44ced35e021af22b69ab52850fb4e8fedcf1f6f77ffd9e86100b9ab8',
    ('pinch_ties', 3, 'text'): 'e715692af4784c5b489fe042137e44f3f38a11c7a4efcec1ea282a90c491b71a',
    ('pinch_ties', 3, 'json'): '972880ccd7d76bcf7fad86c7508ed5f46f8d70a19a08381359bd2fa52ddfbd7c',
    ('pinch_ties', 3, 'csv'): 'c61f07caa1cec6980d62a1d39f948b63b97fdbcd54b65a8e6721a94896c3ebee',
    ('pinch_tree', 1, 'text'): '09cadfebca466892923464ea1d55a5f72ee4828a69770ef5b1fdba9c127e71d7',
    ('pinch_tree', 1, 'json'): 'e6d2c2774dfbffcda66efd8835339d3fe32412267c9a4a78e437da6a18e7d8e5',
    ('pinch_tree', 1, 'csv'): 'b210a88f7f9e7d66bce4de28be1baa0c5123ff4f9cdedc5400792bafb6a2642d',
    ('pinch_tree', 2, 'text'): '60ea3921a3ca92f747d76f8a2385027b0f7621d4733c8e794e4d9ec6ac603aef',
    ('pinch_tree', 2, 'json'): '4de0fbe3b9e1236c43269026b6c4aa4d66623b5519d05688121f419e802d8284',
    ('pinch_tree', 2, 'csv'): 'd7ef9156ef4f54b0697e2a22ace11052c432d65a547c07648fc060a0e642ddf5',
    ('pinch_tree', 3, 'text'): '651532a9db9a3ca277ba1b0b01c15a20fcb8d3937f3bee330f5ea3afcc62abfd',
    ('pinch_tree', 3, 'json'): '792cd26075d01ba57f3608c845b27211e96e2236119ab8046d37dae506431a95',
    ('pinch_tree', 3, 'csv'): '7bc620cbda6aabb3c3318b3b882dca5b5331bd834ba63c0199036dbb1b5f5dd1',
}


def verify_digest(directory: Path, doc: str, bound: int, fmt: str) -> str:
    """sha256 of the exit code, stdout and stderr of ``verify`` at one bound and format."""
    path = directory / f"{doc}.gog"
    if not path.exists():
        path.write_text(PINCH_TEXTS[doc])
    result = CliRunner().invoke(main, ["verify", str(path), "--rtt-bound", str(bound), "--format", fmt])
    data = f"{result.exit_code}\n".encode() + result.stdout_bytes + b"\0" + result.stderr_bytes
    return hashlib.sha256(data).hexdigest()


CASES = [(doc, bound, fmt) for doc in PINCH_TEXTS for bound in BOUNDS for fmt in FORMATS]


@pytest.mark.parametrize("doc", list(PINCH_TEXTS))
def test_verify_digests(tmp_path, doc):
    got = {(doc, b, f): verify_digest(tmp_path, doc, b, f) for b in BOUNDS for f in FORMATS}
    assert got == {key: DIGESTS[key] for key in got}


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        print("DIGESTS = {")
        for case in CASES:
            print(f"    {case!r}: {verify_digest(Path(tmp), *case)!r},")
        print("}")
