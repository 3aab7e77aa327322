#!/usr/bin/env python3
"""Record the sha256 of every benchmark op's stdout into digests.json.

usage: python3 perfbench/record_digests.py

The digests are the byte-for-byte oracle for ops without an independent
one, so record them only at a commit whose outputs are known good (they
were recorded at the commit that added the benchmark) and never to make a
changed output pass.  An op with an oracle must pass it before its
digest is written.
"""

import hashlib
import json
import shutil
import sys

import run
import workloads


def main() -> int:
    run.WORK.mkdir(exist_ok=True)
    try:
        rep = run.write_rep()
        digests = {}
        for op in workloads.all_ops():
            _, code, out, _ = run.spawn([sys.executable, "-m", "crepant",
                                         *run.op_argv(op, rep)])
            if code != 0:
                print(f"exit code {code}: {op.key()}", file=sys.stderr)
                return 1
            reason = op.check(out.decode()) if op.check else None
            if reason is not None:
                print(f"{reason}: {op.key()}", file=sys.stderr)
                return 1
            digests[op.key()] = hashlib.sha256(out).hexdigest()
    finally:
        shutil.rmtree(run.WORK, ignore_errors=True)
    run.DIGESTS.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    print(f"{len(digests)} digests written to {run.DIGESTS}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
