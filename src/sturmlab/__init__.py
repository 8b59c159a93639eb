"""sturmlab: exact arithmetic for Sturmian-type numbers, their matrix
recurrences, approximation identities, parametric 3-systems and Diophantine
exponents."""

__version__ = "0.1.0"

from .exactlin import IntMat2, SymVec, J, det3  # noqa: F401
from .sturm import SturmianProgram, QuadSurd, quantities  # noqa: F401
from .matseq import roy_family, bl_family, MatrixSequence  # noqa: F401
from .approx import make_bundle, verify_identities  # noqa: F401
from .xi import xi_value, properness_check  # noqa: F401
