"""Print one sha256 over the outcomes of a sweep of `lensbounds` commands.

Each command runs in this process through `lensbounds.cli.main`, with stdout
and stderr captured.  Its argv, exit code, stdout, stderr and the type of
any exception it raised (a derive too deep to replay raises RecursionError)
go into the digest, so two trees whose commands behave alike byte for byte
print the same line.  The sweep:

- `derive` for m = 3..699 in steps of 7 and e = 1..8, in both formats,
  with and without `--external`;
- `table --format csv` for e = 1..10 at `--max-m 1024`, under each set of
  the rule flags `--conjectural` and `--external`;
- `query --all --external` at the m and e of the derives.

Run as

    python tools/digest_sweep.py

from any directory: it imports the package from the `src` beside this
file's directory.  It prints the number of commands and the digest.
"""

from __future__ import annotations

import hashlib
import io
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from lensbounds import cli  # noqa: E402  after the path is set

M_VALUES = range(3, 700, 7)
FLAG_SETS = ((), ("--conjectural",), ("--external",),
             ("--conjectural", "--external"))


def commands():
    """The argv of every command of the sweep, in order."""
    for m in M_VALUES:
        for e in range(1, 9):
            for fmt in ("human", "jsonl"):
                for flags in ((), ("--external",)):
                    yield ("derive", "--m", str(m), "--e", str(e),
                           "--format", fmt, *flags)
    for e in range(1, 11):
        for flags in FLAG_SETS:
            yield ("table", "--e", str(e), "--max-m", "1024", "--format",
                   "csv", *flags)
    for m in M_VALUES:
        for e in range(1, 9):
            yield ("query", "--m", str(m), "--e", str(e), "--all",
                   "--external")


def outcome(argv) -> bytes:
    """argv, exit code, stdout, stderr and raised exception type of one
    command, as bytes."""
    out, err = io.StringIO(), io.StringIO()
    saved = sys.stdout, sys.stderr
    sys.stdout, sys.stderr = out, err
    try:
        code, raised = cli.main(list(argv)), ""
    except Exception as exc:  # the type is part of the outcome
        code, raised = None, type(exc).__name__
    finally:
        sys.stdout, sys.stderr = saved
    fields = (" ".join(argv), str(code), out.getvalue(), err.getvalue(),
              raised)
    return "\0".join(fields).encode() + b"\1"


def main() -> int:
    digest = hashlib.sha256()
    count = 0
    for argv in commands():
        digest.update(outcome(argv))
        count += 1
    print(f"{count} commands, sha256 {digest.hexdigest()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
