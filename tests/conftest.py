import sys
from pathlib import Path

from hypothesis import Phase, settings

sys.path.insert(0, str(Path(__file__).parent))

# `pytest --hypothesis-profile=no-shrink` reports the first failing example
# found without shrinking it: a failure over large generated inputs (the
# 32-40 column masks of test_intlin, say) can otherwise take many minutes to
# shrink, since each step reruns the textbook oracles of tests/support.py
settings.register_profile(
    "no-shrink", phases=(Phase.explicit, Phase.reuse, Phase.generate))
