from .base import Manifold
from .bures_wasserstein import BuresWasserstein, BWTangent
from .euclidean import Euclidean
from .positive_orthant import PositiveOrthant
from .sphere import Sphere

__all__ = [
    "Manifold",
    "Sphere",
    "BuresWasserstein",
    "BWTangent",
    "PositiveOrthant",
    "Euclidean",
]
