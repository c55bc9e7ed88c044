"""Host and build fingerprint written into every report, and the rule for
when two reports may be compared."""

import hashlib
import os
import re
import subprocess
from pathlib import Path

# Fields that must match for two reports' numbers to be comparable. The
# commit and the load average are recorded but may differ.
COMPARABLE = ("cpu_model", "nproc", "compiler", "build_type", "simd_width",
              "simd_isa")


def _cpu_model():
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def _cmake_cache(build_dir, key):
    try:
        text = (Path(build_dir) / "CMakeCache.txt").read_text()
    except OSError:
        return "unknown"
    m = re.search(rf"^{key}:[A-Z]+=(.*)$", text, re.MULTILINE)
    return m.group(1) if m else "unknown"


def _compiler(build_dir):
    path = _cmake_cache(build_dir, "CMAKE_CXX_COMPILER")
    try:
        out = subprocess.run([path, "--version"], capture_output=True,
                             text=True, timeout=10).stdout
        return out.splitlines()[0].strip()
    except (OSError, IndexError, subprocess.SubprocessError):
        return path


def _commit(root):
    try:
        out = subprocess.run(["git", "-C", str(root), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        if out.returncode == 0:
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return "none"


def source_digest(root):
    """SHA-256 over the program's sources, for checkouts without git."""
    h = hashlib.sha256()
    root = Path(root)
    for sub in ("CMakeLists.txt", "src", "tools"):
        p = root / sub
        files = [p] if p.is_file() else sorted(p.rglob("*")) if p.is_dir() else []
        for f in files:
            if f.is_file():
                h.update(str(f.relative_to(root)).encode())
                h.update(f.read_bytes())
    return h.hexdigest()[:16]


def collect(root, build_dir, coordd):
    """The fingerprint of this host, this build and this source tree."""
    simd = {}
    try:
        out = subprocess.run([coordd, "--version"], capture_output=True,
                             text=True, timeout=10).stdout
        simd = dict(kv.split("=", 1) for kv in out.split() if "=" in kv)
    except (OSError, subprocess.SubprocessError):
        pass
    return {
        "cpu_model": _cpu_model(),
        "nproc": len(os.sched_getaffinity(0)),
        "compiler": _compiler(build_dir),
        "build_type": _cmake_cache(build_dir, "CMAKE_BUILD_TYPE"),
        "simd_width": simd.get("simd_width", "unknown"),
        "simd_isa": simd.get("simd_isa", "unknown"),
        "git_commit": _commit(root),
        "source_digest": source_digest(root),
        "loadavg_start": os.getloadavg()[0],
    }


def differences(a, b):
    """The comparable fields on which two fingerprints disagree."""
    return [k for k in COMPARABLE if a.get(k) != b.get(k)]
