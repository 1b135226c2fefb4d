import pytest

import permlcs._native as _native


@pytest.fixture
def routes(monkeypatch):
    """The routes a test body runs on, one loop pass each: "native" when
    `_native.library()` loads the compiled LIS kernel and PERMSET codec,
    then "python", their plain-Python fallbacks forced as on a machine with
    no compiler.  A failing pass names its route in the loop variable
    (pytest -l)."""
    def each():
        if _native.library() is not None:
            yield "native"
        monkeypatch.setattr(_native, "library", lambda: None)
        yield "python"
    return each()
