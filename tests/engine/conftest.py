"""Hypothesis profiles for the wire-decode oracle and the HTTP fuzz suite.

Each of those modules reads the profile ``HYPOTHESIS_PROFILE`` names
(``tier1`` when it is unset: few enough examples for the tier-1 run).
``fuzz`` runs many more::

    HYPOTHESIS_PROFILE=fuzz PYTHONPATH=src python -m pytest \\
        tests/engine/test_wire_decode.py tests/engine/test_http_fuzz.py -q

No profile is loaded globally, so every other ``@given`` test keeps
its own settings.
"""

from hypothesis import settings

settings.register_profile("tier1", max_examples=60, deadline=None)
settings.register_profile("fuzz", max_examples=1500, deadline=None)

