"""Escape enclosures when the enumeration is only known approximately.

Here f(n) = n is hidden behind an interval oracle, a plain function: a query
(n, eps) returns a width-eps interval around f(n), never the value itself.
Any function that keeps that contract will do: this one sets each interval
off f(n) by 1/500, up or down, where ``intervalize`` would centre it.  With n_known indices
examined at precision eps, the library brackets the escape value between
two descents; the bracket can only narrow as knowledge grows.
"""

from fractions import Fraction as F

from escapepoint import (
    Affine, EnumerationSpec, RatInterval, enclose_escape_traced, gfp_descend, value_at,
)

spec = EnumerationSpec(prefix=(), tail=Affine(1, 0))
truth, _ = gfp_descend(spec)
print("exact escape value (for reference):", truth)
print()


def oracle(n, eps):
    """A width-eps interval holding f(n), its centre moved 1/500 up (n even) or down (n odd)."""
    centre = value_at(spec, n) + min(F(1, 500), eps / 2) * (-1) ** n
    return RatInterval(centre - eps / 2, centre + eps / 2)  # off-centre, still sound

print(f"{'n_known':>8} {'eps':>8}   enclosure")
for n_known in (1, 2, 4, 8, 16):
    for eps in (F(1, 10), F(1, 100)):
        box, _, _ = enclose_escape_traced(oracle, n_known, eps)
        tag = "  <- exact value pinned" if box.lo == box.hi else ""
        print(f"{n_known:>8} {str(eps):>8}   [{box.lo}, {box.hi}] width {box.width}{tag}")
        assert truth in box
print()
print("every enclosure above contains the exact value; none is wider than")
print("the one directly before it in either direction of the grid")
