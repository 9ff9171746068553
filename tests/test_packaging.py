"""The dependency floors in ``pyproject.toml`` admit only versions that have
what the package calls."""

import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# numpy functions that first appeared in numpy 2.0
NUMPY_2_NAMES = ("vecdot", "trapezoid")


def _floor(package: str) -> tuple:
    """The version of ``package>=X.Y`` in the project dependencies, as a tuple."""
    text = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    match = re.search(rf'"{package}>=([0-9.]+)"', text)
    assert match, f"no {package}>= pin in pyproject.toml"
    return tuple(int(part) for part in match.group(1).split("."))


def test_numpy_floor_has_the_numpy_2_functions_the_package_calls():
    code = "".join(path.read_text(encoding="utf-8")
                   for path in sorted((ROOT / "src" / "hjflow").glob("*.py")))
    used = [name for name in NUMPY_2_NAMES if f"np.{name}(" in code]
    assert used, "the package calls no numpy 2 function; this test guards nothing"
    assert _floor("numpy") >= (2, 0), f"src/ calls {used}, new in numpy 2.0"


def test_scipy_floor_is_built_for_numpy_2():
    # scipy 1.13 is the first release built against numpy 2
    assert _floor("scipy") >= (1, 13)
