"""Special-function calculus of the L^2-model radial theory for O(p+1,q+1).

Subpackages by layer: exact coefficient algebra (`algebra`), renormalized
Bessel functions (`bessel`), the Laguerre/Mano/Lambda families
(`specfun`), differential operators on the line and on the cone
(`diffop`), the Mellin-Barnes inversion kernel (`kernel`), the radial
Hilbert-space model with the unitary inversion operator (`radial`),
verification suites (`verify`) and the command-line frontend (`cli`).
"""

from .algebra import (
    ExactScalar,
    ExactnessError,
    Polynomial,
    gamma_exact,
    reduce_mod_quadric,
)
from .bessel import BesselOrder, itilde, jtilde, ktilde, ktilde_half_closed
from .cone import ConeSpec
from .diffop import apply_P, apply_Rmuell, coordinate_mult, fundamental_R, jordan_mul
from .kernel import (
    KernelCase,
    KernelValue,
    SingularPart,
    b_eval,
    classify,
    phi_eval,
    singular_part,
)
from .radial import (
    InversionSpec,
    RadialFunction,
    apply_inversion,
    expand,
    inner_product,
    minimal_ktype,
    u_eval,
)
from .specfun import (
    LambdaParams,
    ManoParams,
    laguerre,
    lambda_eval,
    mano_exact,
    mano_genfun,
    norm_squared,
)

__version__ = "0.1.0"

__all__ = [
    "BesselOrder",
    "ConeSpec",
    "ExactScalar",
    "ExactnessError",
    "InversionSpec",
    "KernelCase",
    "KernelValue",
    "LambdaParams",
    "ManoParams",
    "Polynomial",
    "RadialFunction",
    "SingularPart",
    "apply_P",
    "apply_Rmuell",
    "apply_inversion",
    "b_eval",
    "classify",
    "coordinate_mult",
    "expand",
    "fundamental_R",
    "gamma_exact",
    "inner_product",
    "itilde",
    "jordan_mul",
    "jtilde",
    "ktilde",
    "ktilde_half_closed",
    "laguerre",
    "lambda_eval",
    "mano_exact",
    "mano_genfun",
    "minimal_ktype",
    "norm_squared",
    "phi_eval",
    "reduce_mod_quadric",
    "singular_part",
    "u_eval",
]
