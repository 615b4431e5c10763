"""tools/make_dataset.py rebuilds the bundled dataset byte for byte, so the
case schema and the case reader stay in step with the shipped files."""
import os
import subprocess
import sys

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir)


def test_make_dataset_rebuilds_bundled_files(data_dir, tmp_path):
    path = filter(None, [os.path.join(ROOT, "src"),
                         os.environ.get("PYTHONPATH")])
    subprocess.run(
        [sys.executable, os.path.join(ROOT, "tools", "make_dataset.py"),
         "--out", str(tmp_path)], check=True, capture_output=True,
        env=dict(os.environ, PYTHONPATH=os.pathsep.join(path)), timeout=120)
    for name in ("case.json", "history_loads.csv", "history_ev.csv"):
        with open(os.path.join(data_dir, name), "rb") as fh:
            assert (tmp_path / name).read_bytes() == fh.read(), name
