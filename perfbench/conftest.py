import sys
from pathlib import Path

# The tests import the package from the checkout's source tree, as the
# benchmark's workers do.
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
