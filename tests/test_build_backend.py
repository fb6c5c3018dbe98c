"""The in-tree build backend writes a wheel that installs entlap and its console script."""

import base64
import configparser
import hashlib
import importlib.util
import tarfile
import zipfile
from pathlib import Path

import pytest

_ROOT = Path(__file__).resolve().parents[1]
_DIST_INFO = "entlap-0.1.0.dist-info"


def _backend():
    spec = importlib.util.spec_from_file_location("_entlap_build", _ROOT / "build_backend" / "entlap_build.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _wheel_files(tmp_path, name):
    """The wheel's files, once every one but RECORD is checked against its RECORD line."""
    assert name == "entlap-0.1.0-py3-none-any.whl"
    with zipfile.ZipFile(tmp_path / name) as whl:
        files = {info.filename: whl.read(info) for info in whl.infolist()}
    record = files[f"{_DIST_INFO}/RECORD"].decode().splitlines()
    assert f"{_DIST_INFO}/RECORD,," in record
    recorded = {}
    for line in record:
        path, digest, size = line.rsplit(",", 2)
        if path != f"{_DIST_INFO}/RECORD":
            recorded[path] = (digest, int(size))
    assert recorded.keys() == files.keys() - {f"{_DIST_INFO}/RECORD"}  # every file but RECORD, once
    for path, (digest, size) in recorded.items():
        data = files[path]
        assert digest == "sha256=" + base64.urlsafe_b64encode(hashlib.sha256(data).digest()).rstrip(b"=").decode()
        assert size == len(data)
    entry_points = configparser.ConfigParser()
    entry_points.read_string(files[f"{_DIST_INFO}/entry_points.txt"].decode())
    assert dict(entry_points["console_scripts"]) == {"entlap": "entlap.cli:main"}
    assert "Tag: py3-none-any" in files[f"{_DIST_INFO}/WHEEL"].decode().splitlines()
    metadata = files[f"{_DIST_INFO}/METADATA"].decode().splitlines()
    assert {"Name: entlap", "Version: 0.1.0", "Requires-Dist: numpy>=1.24"} <= set(metadata)
    return files


def test_wheel_records_every_file_and_the_console_script(tmp_path):
    files = _wheel_files(tmp_path, _backend().build_wheel(str(tmp_path)))
    sources = {f"entlap/{p.name}": p.read_bytes() for p in (_ROOT / "src" / "entlap").glob("*.py")}
    assert {path: files[path] for path in files if path.startswith("entlap/")} == sources


def test_editable_wheel_puts_the_source_tree_on_the_path(tmp_path):
    files = _wheel_files(tmp_path, _backend().build_editable(str(tmp_path)))
    assert files.pop("__editable__.entlap.pth") == f"{_ROOT / 'src'}\n".encode()
    assert all(path.startswith(f"{_DIST_INFO}/") for path in files)


def test_project_table_reads_as_toml():
    tomllib = pytest.importorskip("tomllib")  # the backend itself reads pyproject.toml without it
    with open(_ROOT / "pyproject.toml", "rb") as f:
        assert _backend()._project() == tomllib.load(f)["project"]


def test_sdist_holds_the_source_and_its_metadata(tmp_path):
    name = _backend().build_sdist(str(tmp_path))
    with tarfile.open(tmp_path / name) as tar:
        names = set(tar.getnames())
    assert {"entlap-0.1.0/PKG-INFO", "entlap-0.1.0/pyproject.toml", "entlap-0.1.0/build_backend/entlap_build.py",
            "entlap-0.1.0/src/entlap/criteria.py"} <= names
