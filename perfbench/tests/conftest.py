import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent))
sys.path.insert(0, str(HERE.parent.parent / "src"))

# as in run.main: a user's cache directory must not serve the runs' calls
os.environ.pop("FH_CACHE", None)
