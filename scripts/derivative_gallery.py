#!/usr/bin/env python3
"""Worked examples: gradients of characteristic elements and the first
slices of the wave solutions, printed in canonical text."""

from qmink import algebra as al
from qmink import derivatives as dv
from qmink import matrices as mx
from qmink import surface as sf
from qmink import waves as wv


def show_gradient(title, el):
    print(f"\n# {title}")
    print("  f =", sf.element_to_str(el))
    grad = dv.grad_closed(el)
    for name, comp in zip(mx.FOURVEC_INDEX, grad.components):
        print(f"  d^{name} f =", repr(comp))   # over delta^n if any


def main():
    show_gradient("a light-cone power", al.monomial(d=3))
    show_gradient("the invariant length", al.xsq_element())
    show_gradient("a time power (mixes all coordinates)",
                  al.x0_element() ** 3)
    show_gradient("a mixed ordered word x+ x30^2",
                  al.monomial(c=1) * al.monomial(d=2))

    print("\n# massive rest state, first slices")
    phi = wv.massive_rest_state(n_max=4)
    for d in range(5):
        print(f"  degree {d}:", sf.element_to_str(phi.slice(d)))
    print("  eigenvalue check:", wv.verify_massive(phi))
    print("  Klein-Gordon check:", wv.verify_klein_gordon(phi))

    print("\n# massless light-cone state, first slices")
    psi = wv.massless_state(n_max=4)
    for d in range(5):
        print(f"  degree {d}:", sf.element_to_str(psi.slice(d)))
    print("  eigenvalue check:", wv.verify_massless(psi))


if __name__ == "__main__":
    main()
