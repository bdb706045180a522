"""Option values that both a layer and the command-line parser read.

They live here, and not in certificates or search, so that building the
parser loads neither of those layers.
"""

# The row sets certificates.independence_certificate can build.
VARIANTS = ("lemma41", "swallow1", "lemma52", "swallow2")

# search.max_family's node budget when SearchLimits names none.
DEFAULT_MAX_NODES = 10 ** 7
