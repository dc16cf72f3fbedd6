"""Read the tau of a `kncomp count` JSON file modulo a seeded 61-bit prime.

The CLI smoke test checks counts of up to 499,996 digits against closed
forms modulo Q. Put this directory on the path to import it:

    PYTHONPATH=.github${PYTHONPATH:+:$PYTHONPATH} python - <<'EOF'
    from tau_residue import Q, tau_residue
    result, digits, r = tau_residue("count.json")
    EOF
"""

import json
import random

from kncomp.arith import random_prime

Q = random_prime(61, random.Random(61))


def tau_residue(path: str):
    """(result, digits, residue): the JSON object in `path`, the number of
    digits of its tau, and tau mod Q, read 4000 digits at a time."""
    with open(path) as fh:
        result = json.load(fh)
    text = result["tau"]
    r = 0
    for i in range(0, len(text), 4000):
        piece = text[i : i + 4000]
        r = (r * pow(10, len(piece), Q) + int(piece)) % Q
    return result, len(text), r
