import os
import sys
from pathlib import Path

# make tests/oracles.py importable regardless of invocation directory
sys.path.insert(0, str(Path(__file__).parent))

# the CLI tests start child interpreters: let them import this checkout's
# package too when pytest alone put src/ on sys.path
_SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, (_SRC, os.environ.get("PYTHONPATH"))))
