"""Bundled example documents with certified expected values (see the tests)."""

from __future__ import annotations

from importlib import resources

from .document import InputDocument, parse_document
from .errors import InputError

BUNDLED = {
    "golden_ratio_rose": "rank-2 rose, a->b, b->ab; everything meets at the golden ratio",
    "polynomial_rose": "rank-2 rose, a->a, b->ba; linear growth, Lipschitz -> 1 along the family",
    "c3c3_swap": "C3 * C3 with the factors swapped; permutation stratum at 1",
    "c2f2_mixed": "C2 * F2, factor fixed, golden-ratio map on the free part",
}


def bundled_text(name: str) -> str:
    if name not in BUNDLED:
        raise InputError(f"no bundled example named '{name}'")
    return (resources.files(__package__) / "fixtures" / f"{name}.gog").read_text(encoding="utf-8")


def load_bundled(name: str) -> InputDocument:
    return parse_document(bundled_text(name), name=name)
