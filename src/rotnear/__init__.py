"""Exact computations in rotation groups over ordered fields.

The package works in two concrete fields: the rationals, and the
rational functions Q(e) ordered so that e is a positive infinitesimal.
On top of exact linear algebra it provides the Cayley parametrization
of rotations, reflections with a constructive factorization of any
isometry into at most n of them, spinor norms as canonical square
classes, rotations infinitesimally near the identity, and the resulting
proper non-central normal subgroup of the rotation group with a
decidable membership oracle.
"""

from .cayley import (
    CayleyObstructionError,
    NeumannReport,
    cayley,
    infinitesimal_rotation,
    is_skew,
    neumann_check,
)
from .field import (
    ElemSyntaxError,
    PolyEps,
    RatFuncEps,
    SquareClassRep,
    SquarefreeBoundError,
    eps,
    eps_order,
    format_elem,
    is_infinitesimal,
    is_square,
    parse_elem,
    parse_rat,
    sign,
    square_class,
    squarefree_decomposition,
    squarefree_int,
    squarefree_part,
)
from .linalg import (
    Mat,
    SingularMatrixError,
    Vec,
    det,
    frob_sq,
    inverse,
    is_orthogonal,
    mat_from_json,
    mat_to_json,
)
from .quadspace import (
    BilinearSpace,
    Isometry,
    ReflectionSeq,
    check_neg_identity,
    compose,
    decompose,
    reflect,
    spinor_norm,
)
from .subgroup import (
    CheckRecord,
    NVerdict,
    closure_suite,
    contact_generator,
    in_n,
    witnesses,
)

__version__ = "0.1.0"

__all__ = [
    "BilinearSpace",
    "CayleyObstructionError",
    "CheckRecord",
    "ElemSyntaxError",
    "Isometry",
    "Mat",
    "NVerdict",
    "NeumannReport",
    "PolyEps",
    "RatFuncEps",
    "ReflectionSeq",
    "SingularMatrixError",
    "SquareClassRep",
    "SquarefreeBoundError",
    "Vec",
    "cayley",
    "check_neg_identity",
    "closure_suite",
    "compose",
    "contact_generator",
    "decompose",
    "det",
    "eps",
    "eps_order",
    "format_elem",
    "frob_sq",
    "in_n",
    "infinitesimal_rotation",
    "inverse",
    "is_infinitesimal",
    "is_orthogonal",
    "is_skew",
    "is_square",
    "mat_from_json",
    "mat_to_json",
    "neumann_check",
    "parse_elem",
    "parse_rat",
    "reflect",
    "sign",
    "spinor_norm",
    "square_class",
    "squarefree_decomposition",
    "squarefree_int",
    "squarefree_part",
    "witnesses",
]
