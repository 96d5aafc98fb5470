"""Feature files and the command line: synth, adapt, and the JSON report.

Shows the on-disk interchange format, then drives the CLI exactly as a
shell user would and digs into the report it emits. Everything happens in
a temporary directory that is removed at the end.
"""

import json
import tempfile
from pathlib import Path

from splda.cli import main

with tempfile.TemporaryDirectory(prefix="splda-demo-") as tmp:
    workdir = Path(tmp)
    src_file = workdir / "source.txt"
    tgt_file = workdir / "target.txt"
    report_file = workdir / "report.json"

    print("1. generate a synthetic pair on disk")
    main(["synth", "--classes", "4", "--per-class", "30", "--dim", "12",
          "--shift", "3.0", "--seed", "1",
          "--out-source", str(src_file), "--out-target", str(tgt_file)])

    print("\n2. the file format is one header plus one sample per line:")
    for line in src_file.read_text().splitlines()[:3]:
        shown = line if len(line) < 72 else line[:69] + "..."
        print(f"   {shown}")

    print("\n3. run adaptation and the 1NN baseline through the CLI")
    main(["adapt", "--source", str(src_file), "--target", str(tgt_file),
          "--d1", "12", "--d2", "8", "--iters", "10",
          "--report", str(report_file)])
    main(["baseline-1nn", "--source", str(src_file), "--target", str(tgt_file)])

    print("\n4. the report is machine-readable JSON with a schema version")
    report = json.loads(report_file.read_text())

task = report["tasks"][0]
print(f"   schema_version : {report['schema_version']}")
print(f"   config         : {task['config']}")
print(f"   per-iteration  : {[round(a, 1) for a in task['iteration_accuracy']]}")
print(f"   selected counts: {task['selected_counts']}")
print(f"   predictions    : {task['predictions'][:10]} ... "
      f"({len(task['predictions'])} target samples, in the files' class ids)")
print(f"   batch average  : {report['batch']['average_final_accuracy']:.1f}")
