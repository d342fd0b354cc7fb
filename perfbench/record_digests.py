"""Record each workload's reference-cell digest in expected.json.

    python3 perfbench/record_digests.py

The reference cell of every workload runs in ten fresh processes with BLAS
pinned to one thread. The digests are written, together with the platform
fingerprint they hold on, only if all ten processes agree and every check of
the cell passes.
"""

import json
import sys

from run import HERE, ROOT, WORKLOADS, spawn

PROCESSES = 10


def main():
    recorded, fingerprint = {}, None
    for name in WORKLOADS:
        digests = set()
        for i in range(PROCESSES):
            workdir = ROOT / ".bench_work" / f"record-{name}-{i}"
            _, payloads, code = spawn("setup", name, 0, 0, 0, workdir)
            ready = payloads.get("READY")
            if code != 0 or ready is None or ready["errors"]:
                print(f"{name}: reference cell failed: {ready and ready['errors']}", file=sys.stderr)
                return 1
            if fingerprint not in (None, ready["fingerprint"]):
                print(f"{name}: platform fingerprint changed between processes", file=sys.stderr)
                return 1
            fingerprint = ready["fingerprint"]
            digests.add(ready["digest"])
        if len(digests) != 1:
            print(f"{name}: digests differ across {PROCESSES} processes: {sorted(digests)}",
                  file=sys.stderr)
            return 1
        recorded[name] = digests.pop()
        print(f"{name}: {recorded[name]} (same in {PROCESSES} fresh processes)")
    text = json.dumps({"fingerprint": fingerprint, "digests": recorded}, indent=2) + "\n"
    (HERE / "expected.json").write_text(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
