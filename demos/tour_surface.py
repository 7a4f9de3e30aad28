"""The genus-two surface group, computed cell by cell.

The surface presentation has one 2-cell, so its presentation complex is
the closed surface itself and the full three-term cochain complex is on
the table: degree-0 and degree-2 kernels stay one-dimensional under
every finite quotient while the degree-1 kernel grows linearly with the
index, the alternating sum lands on the Euler characteristic -2 every
time, and the top-degree kernel projections flatten out into ghosts.

Run:  python3 demos/tour_surface.py
"""

from fractions import Fraction

from coholap import (
    BetaRef,
    betti_report,
    box_obstruction_report,
    euler_class_trace,
    ghost_diagnostic,
    quotient_chain,
    surface_genus2_complex,
)


def abelianized_stage(presentation, m):
    names = presentation.generator_names
    words = [presentation.word(f"{g}^{m}") for g in names]
    for i in range(len(names)):
        for j in range(i + 1, len(names)):
            words.append(presentation.word(
                f"{names[i]}*{names[j]}*{names[i]}^-1*{names[j]}^-1"))
    return words


def main():
    spec = surface_genus2_complex()
    print("cell counts:", spec.cell_counts, " (a closed surface)")
    print("euler characteristic:", 1 - 4 + 1)

    chain = quotient_chain(
        spec.presentation,
        [abelianized_stage(spec.presentation, m) for m in (2, 3)],
        ball_radius=3)
    print("abelianized quotients of order:",
          list(chain.indices))

    print("\n--- Betti numbers per degree ---")
    for _position, order, rep in chain.stages():
        row = []
        for degree in range(3):
            betti, _gap = betti_report(spec, degree, rep)
            row.append(betti)
        print(f"  order {order:3d}:  betti = {tuple(row)}   "
              f"(degree 1 is 2 + 2*{order})")

    print("\n--- Euler trace along the chain ---")
    euler = euler_class_trace(spec, chain)
    for record in euler.records:
        print(f"  order {record.quotient_order:3d}:  kernel dims "
              f"{tuple(record.kernel_dims)}  ->  alternating normalized "
              f"sum {record.euler_trace}")
    print("every stage hits the Euler characteristic exactly:",
          euler.all_match)

    print("\n--- top-degree obstruction against a vanishing reference ---")
    report = box_obstruction_report(
        spec, 2, chain,
        BetaRef(value=Fraction(0), provenance="user-cited",
                citation="top-degree limit for the infinite group"))
    for record in report.records:
        print(f"  order {record.quotient_order:3d}:  kernel dim "
              f"{record.d_star_value}  vs lifted {record.lifted_value}"
              f"  ->  discrepancy {record.discrepancy}")
    print("verdict:", report.verdict)

    print("\n--- ghost diagnostic at the top degree ---")
    ghost = ghost_diagnostic(spec, 2, chain)
    for record in ghost.records:
        print(f"  order {record.quotient_order:3d}:  max |entry| = "
              f"{record.max_abs_entry:.6f}   trace = {record.trace:.3f}")
    print("entries flatten like 1/order while the trace stays 1:",
          ghost.ghost_like)
    print("a projection that never dies but fades from every matrix")
    print("entry is exactly the ghost behavior the diagnostic hunts for.")


if __name__ == "__main__":
    main()
