"""Every module of the package stays below the parser's token step.

CPython's parser preallocates its token array by doubling, so a module that
passes 8,192 tokens parses into about 0.45 MB more.  When the interpreter
writes no bytecode, that parse sets the peak memory of a short run (the
benchmark imports the package several times).  Tokens are counted as
tokenize gives them, less comments and non-logical newlines.  Run as a
script, this file prints each module's count and its headroom.
"""

from __future__ import annotations

import tokenize
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "stickforge"
STEP = 8192


def significant_tokens(path: Path) -> int:
    with path.open("rb") as fh:
        return sum(1 for tok in tokenize.tokenize(fh.readline)
                   if tok.type not in (tokenize.COMMENT, tokenize.NL))


def module_counts() -> dict[str, int]:
    return {path.name: significant_tokens(path) for path in sorted(SRC.glob("*.py"))}


def test_every_module_stays_under_the_token_step():
    counts = module_counts()
    assert {"verifier.py", "_verifier_exact.py", "_verifier_float.py"} <= set(counts)
    over = {name: n for name, n in counts.items() if n >= STEP}
    assert not over, "significant tokens per module: " + ", ".join(
        f"{name} {n}" for name, n in counts.items())


if __name__ == "__main__":
    # one line per module: its count and its headroom below the step
    for name, n in module_counts().items():
        print(f"{name} {n} ({STEP - n} below {STEP})")
