"""Run one crepant CLI op in this fresh process with every layer traced.

usage: python3 perfbench/shim.py TRACE_OUT ARG...

Times ``import crepant`` (the import layer), wraps the layers' public
functions, calls ``crepant.cli.main(ARG...)`` with stdout captured, then
writes the captured bytes to stdout unchanged and the spans and counters
to TRACE_OUT as JSON.  The exit code is the op's own.
"""

import sys
from time import perf_counter


def main() -> int:
    out_path, argv = sys.argv[1], sys.argv[2:]
    start = perf_counter()
    import crepant  # noqa: F401
    import crepant.cli  # noqa: F401
    end = perf_counter()
    loaded = len(sys.modules)

    import io
    import json

    import tracer

    trace = tracer.Tracer()
    trace.spans.append(["import", start, end, -1, 0])
    trace.add("import.calls")
    trace.add("import.modules_loaded", loaded)
    tracer.instrument(trace)
    cli_main = sys.modules["crepant.cli"].main

    real_stdout, captured = sys.stdout, io.StringIO()
    sys.stdout = captured
    try:
        code = cli_main(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 2
    finally:
        sys.stdout = real_stdout
        tracer.finish(trace)
        with open(out_path, "w", encoding="utf-8") as fh:
            json.dump(trace.dump(), fh)
    real_stdout.write(captured.getvalue())
    return code


if __name__ == "__main__":
    sys.exit(main())
