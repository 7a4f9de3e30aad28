"""A walking tour of the rank-two free group through its finite shadows.

The free group on two letters has no finite-dimensional tricks up its
sleeve: every interesting invariant lives at infinity.  This script
watches the normalized Betti numbers of deeper and deeper abelianized
quotients crawl toward their limiting value 1, checks the trace
discrepancy that keeps the lifted reference value from matching, and
sandwiches the limit with an exact power-trace upper-bound sequence.

Run:  python3 demos/tour_free_group.py
"""

from fractions import Fraction

from coholap import (
    BetaRef,
    box_obstruction_report,
    free_group_complex,
    l2_betti_upper_bounds,
    luck_approximation,
    quotient_chain,
)


def abelianized_stage(presentation, m):
    """Relator words carving out the quotient (Z/m) x (Z/m)."""
    a, b = presentation.generator_names
    return [presentation.word(f"{a}^{m}"),
            presentation.word(f"{b}^{m}"),
            presentation.word(f"{a}*{b}*{a}^-1*{b}^-1")]


def main():
    spec = free_group_complex(2)
    presentation = spec.presentation
    print("presentation: two generators, no relators")
    print("cell counts:", spec.cell_counts)

    chain = quotient_chain(
        presentation,
        [abelianized_stage(presentation, m) for m in (2, 3, 4, 5)],
        ball_radius=3)
    print("\nquotient chain (Z/m)^2 for m = 2..5, orders:",
          list(chain.indices))
    print("separation check: radius", chain.separation.radius,
          "separated:", chain.separation.separated)

    print("\n--- normalized Betti numbers at degree 1 ---")
    luck = luck_approximation(spec, 1, chain)
    for record in luck.records:
        print(f"  order {record.quotient_order:3d}:  "
              f"betti = {record.betti:3d}   "
              f"ratio = {record.ratio}  (= {float(record.ratio):.4f})")
    print("tail differences:", [str(t) for t in luck.tail_estimates])
    print("extrapolated limit:", luck.extrapolated,
          f"({luck.extrapolation_note})")

    print("\n--- trace discrepancy against the lifted reference ---")
    report = box_obstruction_report(
        spec, 1, chain,
        BetaRef(value=Fraction(1), provenance="user-cited",
                citation="limiting normalized Betti number"))
    for record in report.records:
        print(f"  order {record.quotient_order:3d}:  kernel dim "
              f"{record.d_star_value:3d}  vs lifted {record.lifted_value}"
              f"  ->  discrepancy {record.discrepancy}")
    print("verdict:", report.verdict)
    print("degree-1 gaps decay along the chain:", report.gap_decay)
    print("note:", report.box_metric_note)

    print("\n--- exact upper-bound sequence at degree 1 ---")
    bounds = l2_betti_upper_bounds(spec, 1, m_max=8)
    print("backend:", bounds.backend, "  norm bound:", bounds.norm_bound)
    for m, value in enumerate(bounds.values, start=1):
        print(f"  u_{m:<2d} = {str(value):>12s}  (= {float(value):.6f})")
    print("every term bounds the limit 1 from above; the sequence is")
    print("nonincreasing and exact, so the crawl is certified, not sampled.")


if __name__ == "__main__":
    main()
