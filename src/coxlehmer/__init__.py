"""Lehmer codes for finite Coxeter groups, the multicomplexes of their
lower Bruhat intervals, and exact Poincare polynomial computations."""

from .codes import (
    LehmerCode,
    code_a,
    code_b,
    code_d,
    code_h3,
    code_i2,
    dual_code,
    enumerate_dihedral_codes,
    standard_code,
    verify_code,
)
from .coxeter import BruhatPoset, CoxeterSystem, build_system
from .intervals import (
    group_complex,
    interval_complex,
    interval_ideal,
    interval_poincare,
    palindromic_intervals,
    principal_set,
    unimodal_set,
)
from .multicomplex import OrderIdeal, box_table, ideal_from_points, is_m_sequence
from .qpoly import IntPolynomial
from .simplicial import SimplicialComplex, build_box_complex, complex_of_ideal

__version__ = "0.1.0"
