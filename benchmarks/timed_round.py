"""One round of a workload in a fresh interpreter.

    python3 timed_round.py SPEC.json RESULT.json

SPEC holds "src" (the directory holding the mtlens package),
"commands" (argv lists for mtlens.cli.main), "loaders" ([name, path]
pairs), "setup_repeats" and "trace" (a span file path, or null).

The CLI commands run back to back and are timed as one block: wall
time, user plus system CPU time of this process (every thread,
OpenBLAS's included) and its peak resident memory. Without tracing,
the loaders are then called directly, setup_repeats times, with the
page cache warm from the commands. With tracing, spans around the
program's public functions are written to the span file instead.
"""

import json
import resource
import sys
import time
import traceback


def main(spec_path, result_path) -> None:
    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    sys.path.insert(0, spec["src"])
    import mtlens.align
    import mtlens.cli
    import mtlens.corpus
    import mtlens.semsim
    import mtlens.transformer

    loaders = {
        "load_run": mtlens.corpus.load_run,
        "load_corpus": mtlens.corpus.load_corpus,
        "load_embeddings": mtlens.semsim.load_embeddings,
        "load_model": mtlens.transformer.load_model,
        "load_vocab": mtlens.transformer.load_vocab,
        "read_pharaoh": mtlens.align.read_pharaoh,
    }
    recorder = None
    if spec["trace"]:
        from spans import Recorder

        recorder = Recorder()
        recorder.install()

    codes = []
    before = resource.getrusage(resource.RUSAGE_SELF)
    start = time.perf_counter()
    for argv in spec["commands"]:
        try:
            codes.append(mtlens.cli.main(argv))
        except Exception:  # a raw exception is a failed command, not a failed round
            traceback.print_exc()
            codes.append(None)
    wall = time.perf_counter() - start
    after = resource.getrusage(resource.RUSAGE_SELF)
    result = {
        "codes": codes,
        "wall_s": wall,
        "cpu_s": (after.ru_utime - before.ru_utime) + (after.ru_stime - before.ru_stime),
        "peak_rss_mb": after.ru_maxrss / 1024.0,  # ru_maxrss is in KiB on Linux
        "setup_s": [],
    }
    if recorder is not None:
        recorder.write(spec["trace"])
    else:
        for _ in range(spec["setup_repeats"]):
            t0 = time.perf_counter()
            for name, path in spec["loaders"]:
                loaders[name](path)
            result["setup_s"].append(time.perf_counter() - t0)
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main(sys.argv[1], sys.argv[2])
