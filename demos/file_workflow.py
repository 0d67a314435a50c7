"""A full classify -> pipeline -> verify workflow through the CLI surface.

Everything the command line does is callable in-process through
rmenum.cli.main; this script drives the same workflow a shell user would,
inside a temporary directory.

Run:  python demos/file_workflow.py
"""

import tempfile
from pathlib import Path

from rmenum.cli import main

with tempfile.TemporaryDirectory() as tmp:
    tmp = Path(tmp)
    classes = tmp / "h34.txt"
    dist = tmp / "r35.txt"
    oracle = tmp / "r35_brute.txt"

    print("$ rmenum classify --d 3 --m 4 --out h34.txt")
    main(["classify", "--d", "3", "--m", "4", "--out", str(classes)])

    print("\n$ rmenum pipeline --r 3 --m 5 --classes h34.txt --checkpoint ckpt --out r35.txt")
    main([
        "pipeline", "--r", "3", "--m", "5",
        "--classes", str(classes),
        "--checkpoint", str(tmp / "ckpt"),
        "--out", str(dist),
    ])

    print("\n$ rmenum brute --r 3 --m 5 --out r35_brute.txt")
    main(["brute", "--r", "3", "--m", "5", "--out", str(oracle)])

    print("\n$ rmenum verify --dist r35.txt --r 3 --m 5")
    code = main(["verify", "--dist", str(dist), "--r", "3", "--m", "5"])
    print("exit code:", code)

    pipe_data = [l for l in dist.read_text().splitlines() if not l.startswith("#")]
    brute_data = [l for l in oracle.read_text().splitlines() if not l.startswith("#")]
    print("\npipeline and oracle data sections identical:", pipe_data == brute_data)
