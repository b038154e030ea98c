"""Bounds on the Euclidean embedding dimension of 2^e-torsion lens spaces.

Exact lower (nonembedding) and upper (embedding) bounds, derived by
mechanized arithmetic rules with machine-checkable derivation trees.
"""

from time import perf_counter

# when the package began to import: `--timings` reports the seconds from
# here to `cli.main` as the import phase
_IMPORT_START = perf_counter()

from .catalog import Report, report
from .cohomology import (CohomologyRing, Mod2Class, is_spin, multiply,
                         normal_sw_class, steenrod_square,
                         tangential_sw_class)
from .dyadic import (alpha, hurwitz_radon, nu, nu_binom, nu_binom_sym,
                     radon_pair)
from .inductive import milgram_condition, round_forms, sections_table
from .lifting import (LiftInstance, davis_mahowald_check, embedding_gate,
                      feeding_params, sharper_lifting_level, sharpening_drop)
from .records import (Bound, Category, DerivationNode, Direction,
                      InconsistentBoundsError, LensSpace,
                      metastable_smoothable)

__version__ = "0.1.0"

__all__ = [
    "alpha", "nu", "nu_binom", "nu_binom_sym", "hurwitz_radon", "radon_pair",
    "CohomologyRing", "Mod2Class", "multiply", "steenrod_square",
    "tangential_sw_class", "normal_sw_class", "is_spin",
    "LensSpace", "Bound", "Direction", "Category", "DerivationNode",
    "metastable_smoothable", "InconsistentBoundsError",
    "Report", "report",
    "sections_table", "round_forms", "milgram_condition",
    "LiftInstance", "sharpening_drop", "embedding_gate", "feeding_params",
    "davis_mahowald_check", "sharper_lifting_level",
]
