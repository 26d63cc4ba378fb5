"""The driver scripts run end to end on a tiny budget."""
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _run_script(name, args, cwd):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / name), *args],
                          cwd=cwd, env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def test_sweep_and_pipeline_scripts(tmp_path):
    _run_script("run_sweep.py", ["--out", str(tmp_path / "sweep"), "--dense-steps", "2", "--steps", "2",
                                 "--patterns", "2:4"], tmp_path)
    assert (tmp_path / "sweep" / "sweep.svg").read_text().startswith("<svg")
    _run_script("run_pipeline.py", ["--out", str(tmp_path / "pipe"), "--dense-steps", "2",
                                    "--transfer-steps", "2", "--n-eval", "16"], tmp_path)
    for name in ("dense", "sparse"):
        assert (tmp_path / "pipe" / f"eval-{name}" / "report.json").exists()
