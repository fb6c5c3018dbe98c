"""A PEP 517 build backend for entlap that needs nothing but the standard library.

`pyproject.toml` names it with `backend-path` and `requires = []`, so `pip
install .` works offline, with no setuptools, wheel or TOML library to fetch,
on every Python the project supports.  `build_wheel` writes a py3-none-any
wheel of `src/entlap` with its METADATA, WHEEL, entry_points.txt and RECORD,
read off `pyproject.toml`; `build_editable` (PEP 660) writes the same
metadata with a .pth file that puts this tree's `src` on sys.path, for `pip
install -e .`; `build_sdist` writes the source tree as a tar.gz.
"""

import ast
import base64
import hashlib
import io
import tarfile
import zipfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _project() -> dict:
    """The `[project]` table of pyproject.toml, with its subtables as dicts.

    It reads the TOML that file holds: `key = value` lines, each value a string
    or an array of strings on one line, which are also Python literals.  Any
    other value stops the build with an error rather than being misread.
    """
    project, table = {}, None
    for line in (ROOT / "pyproject.toml").read_text(encoding="utf-8").splitlines():
        line = line.strip()
        if line.startswith("["):
            head = line.strip("[]").split(".")
            table = (project if len(head) == 1 else project.setdefault(head[1], {})) if head[0] == "project" else None
        elif table is not None and line and not line.startswith("#"):
            key, _, value = line.partition("=")
            table[key.strip()] = ast.literal_eval(value.strip())
    return project


def _metadata(p: dict) -> str:
    lines = ["Metadata-Version: 2.1", f"Name: {p['name']}", f"Version: {p['version']}",
             f"Summary: {p['description']}", f"Requires-Python: {p['requires-python']}"]
    lines += [f"Requires-Dist: {dep}" for dep in p.get("dependencies", [])]
    for extra, deps in p.get("optional-dependencies", {}).items():
        lines += [f"Provides-Extra: {extra}"] + [f'Requires-Dist: {dep}; extra == "{extra}"' for dep in deps]
    lines.append("Description-Content-Type: text/markdown")
    return "\n".join(lines) + "\n\n" + (ROOT / p["readme"]).read_text(encoding="utf-8")


def _record_line(name: str, data: bytes) -> str:
    digest = base64.urlsafe_b64encode(hashlib.sha256(data).digest()).rstrip(b"=").decode()
    return f"{name},sha256={digest},{len(data)}"


def _wheel(wheel_directory, p: dict, files: dict) -> str:
    """Write a py3-none-any wheel of `files` with the project's dist-info; its name."""
    dist_info = f"{p['name']}-{p['version']}.dist-info"
    files[f"{dist_info}/METADATA"] = _metadata(p).encode()
    files[f"{dist_info}/WHEEL"] = (b"Wheel-Version: 1.0\nGenerator: entlap_build\nRoot-Is-Purelib: true\n"
                                   b"Tag: py3-none-any\n")
    scripts = "".join(f"{name} = {target}\n" for name, target in p.get("scripts", {}).items())
    files[f"{dist_info}/entry_points.txt"] = f"[console_scripts]\n{scripts}".encode()
    record = [_record_line(name, data) for name, data in files.items()] + [f"{dist_info}/RECORD,,"]
    files[f"{dist_info}/RECORD"] = ("\n".join(record) + "\n").encode()
    wheel_name = f"{p['name']}-{p['version']}-py3-none-any.whl"
    with zipfile.ZipFile(Path(wheel_directory) / wheel_name, "w", zipfile.ZIP_DEFLATED) as whl:
        for name, data in files.items():
            whl.writestr(name, data)
    return wheel_name


def build_wheel(wheel_directory, config_settings=None, metadata_directory=None) -> str:
    p = _project()
    return _wheel(wheel_directory, p, {path.relative_to(ROOT / "src").as_posix(): path.read_bytes()
                                       for path in sorted((ROOT / "src" / p["name"]).rglob("*.py"))})


def build_editable(wheel_directory, config_settings=None, metadata_directory=None) -> str:
    p = _project()
    return _wheel(wheel_directory, p, {f"__editable__.{p['name']}.pth": f"{ROOT / 'src'}\n".encode()})


def build_sdist(sdist_directory, config_settings=None) -> str:
    p = _project()
    base = f"{p['name']}-{p['version']}"
    paths = [ROOT / "pyproject.toml", ROOT / p["readme"], *sorted(ROOT.glob("build_backend/*.py")),
             *sorted((ROOT / "src" / p["name"]).rglob("*.py"))]
    with tarfile.open(Path(sdist_directory) / f"{base}.tar.gz", "w:gz") as tar:
        for path in paths:
            tar.add(path, f"{base}/{path.relative_to(ROOT).as_posix()}")
        info = tarfile.TarInfo(f"{base}/PKG-INFO")
        data = _metadata(p).encode()
        info.size = len(data)
        tar.addfile(info, io.BytesIO(data))
    return f"{base}.tar.gz"
