"""The rigidity kernel: each form entry, condition formula and leading minor,
written once.

Every formula is a function of the point quantities (`FormInputs`) and a
constant constructor `K(n, d, s3)`, and combines them by + - * / alone
(3.12 and the 5x5 form's minors also take |z|^2 as `abs2`), so it runs on
any ring that supplies them.  `rigidity` runs it on numpy arrays holding a
whole batch of points; `identities` runs it on catalog expressions, where it
proves the algebra behind Theorems A and B and Corollary C exactly (scripts
2.11, 3.8, 3.4).
The module imports nothing outside the standard library, so the symbolic
commands load no float code.
"""

from __future__ import annotations

from typing import NamedTuple

__all__ = ["FormInputs", "form_entries", "torsion_free_entries",
           "thm_b_minors", "corollary_c_minors", "det"]


class FormInputs(NamedTuple):
    """Point quantities the formulas read, all real or conjugated data."""

    R: object
    t: object            # |A11_1|^{2/3}
    a2: object           # |A11|^2
    lapR: object = 0     # sublaplacian of R
    imbb: object = 0     # Im A11_bb
    Rb: object = 0       # conj(R1) = R_{,b}
    Ab: object = 0       # conj(A11) = A_{b1b1}
    Ab1: object = 0      # conj(A11_b) = A_{b1b1,1}
    R0: object = 0
    rebb: object = 0     # Re A11_bb
    grad2: object = 0    # |grad_b R|^2 = 2|R1|^2


def _abs2(z):
    return abs(z) ** 2


def form_entries(x: FormInputs, K) -> dict[tuple[int, int], object]:
    """Upper triangle (i <= j) of the 5x5 Hermitian form; zero entries omitted.

    Basis (E11_{,b1}, iE11_{,0}, E11_{,1}, E11_{,b}, E11); the form is
    sum_ij m_ij u_i conj(u_j).  It is display 3.8 with the 3.7 cube-root
    terms (the t parts of (3,3) and (4,4)); its leading 4x4 block is the 4x4
    form.  The float operation order fixes the `equiv` output bytes.

    Here and in the condition formulas every sign sits in a constant, so the
    formula run on |inputs| with `rigidity._magnitude` gives M, the sum of
    the magnitudes of its summands.
    """
    return {
        (0, 0): K(29, 48), (0, 1): K(-1), (1, 1): K(2),
        (2, 2): x.R / K(3), (2, 3): K(5j, 3) * x.Ab,
        (3, 3): x.R / K(8) + K(-2, 3) * x.t,
        (0, 4): x.R / K(-6), (1, 4): K(2) * x.R / K(3),
        (2, 4): K(5, 48) * x.Rb + K(-2j) * x.Ab1,
        (4, 4): (K(29, 48) * (x.R * x.R) + K(11, 48) * x.lapR + K(6) * x.a2
                 + K(-2, 3) * (x.t * x.t) + K(-16, 3) * x.imbb),
    }


def torsion_free_entries(x: FormInputs, K) -> dict[tuple[int, int], object]:
    """Upper triangle of the torsion-free form of display 3.4 (A = 0).

    Same basis indices as `form_entries`, without 3 (E11_{,b} does not
    occur); its determinant is corollaryC / 648.
    """
    return {
        (0, 0): K(2, 3), (0, 1): K(-1), (1, 1): K(2),
        (2, 2): x.R / K(3),
        (0, 4): x.R / K(-6), (1, 4): K(2) * x.R / K(3),
        (2, 4): K(1, 6) * x.Rb,
        (4, 4): K(2, 3) * (x.R * x.R) + K(1, 6) * x.lapR,
    }


def _thm_a(x: FormInputs, K):
    """Automorphism-rigidity value sqrt3 R_{,0} - 2 Im(A11_{,bb})."""
    return K(1, s3=True) * x.R0 + K(-2) * x.imbb


def _cond_3_11(x: FormInputs, K):
    """9 det of the form's (E11_{,1}, E11_{,b}) block."""
    return K(3, 8) * (x.R * x.R) + K(-2) * x.R * x.t + K(-25) * x.a2


def _cond_3_12(x: FormInputs, K, abs2=_abs2):
    """9 det of the 5x5 form, through its Schur steps."""
    e = form_entries(x, K)
    brace = (K(83, 3456) * (x.R * x.R) + K(55, 1152) * x.lapR + K(5, 4) * x.a2
             + K(-5, 36) * (x.t * x.t) + K(-10, 9) * x.imbb)
    return _cond_3_11(x, K) * brace + K(-15, 8) * e[3, 3] * abs2(e[2, 4])


def _corollary_c(x: FormInputs, K):
    """Torsion-free value 4R(5R^2 + 3 lap_b R) - 3|grad_b R|^2."""
    return K(4) * x.R * (K(5) * (x.R * x.R) + K(3) * x.lapR) + K(-3) * x.grad2


def _bianchi(x: FormInputs, K):
    """R_{,0} - 2 Re(A11_{,bb}); zero for consistent data."""
    return x.R0 + K(-2) * x.rebb


# The leading principal minors of the two forms.  By Sylvester's criterion
# (Horn & Johnson, Matrix Analysis, 2nd ed., Thm 7.2.5) the 5x5 form is
# positive definite iff R > 0, 3.11 > 0 and 3.12 > 0 (Theorem B), and the
# torsion-free one iff R > 0 and corollaryC > 0 (Corollary C).

def thm_b_minors(x: FormInputs, K, abs2=_abs2) -> list:
    """Leading principal minors of the 5x5 form, smallest first; the first
    four are those of the 4x4 form."""
    return [K(29, 48), K(5, 24), K(5, 72) * x.R, K(5, 216) * _cond_3_11(x, K),
            K(1, 9) * _cond_3_12(x, K, abs2)]


def corollary_c_minors(x: FormInputs, K) -> list:
    """Leading principal minors of the torsion-free form, smallest first."""
    return [K(2, 3), K(1, 3), x.R / K(9), K(1, 648) * _corollary_c(x, K)]


def det(matrix: list[list]):
    """Determinant by cofactor expansion along the first row, on any
    commutative ring whose elements support + - * and are false when zero
    (catalog expressions in `identities`)."""
    if len(matrix) == 1:
        return matrix[0][0]
    out = matrix[0][0] * 0
    for j, entry in enumerate(matrix[0]):
        if entry:
            term = entry * det([row[:j] + row[j + 1:] for row in matrix[1:]])
            out = out - term if j % 2 else out + term
    return out
