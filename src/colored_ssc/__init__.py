"""Controllability analysis for leader-follower networks on colored graphs.

Edges sharing a color are constrained to identical nonzero weights.  The
package decides controllability sufficiency with exact combinatorial
certificates (zero forcing with a colored change rule, elementary edge
operations) and corroborates or falsifies verdicts numerically through
sampled realizations.
"""

__version__ = "0.1.0"

# The names of the README's library example; everything else is imported
# from its defining submodule.
from .edgeops import eeo_derived_set
from .forcing import is_zero_forcing_set
from .graph import vset_from_labels
