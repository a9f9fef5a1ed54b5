"""Mount lookup keeps whole-component longest-prefix matching.

``VFS._find_mount`` probes the normalised path's own prefixes against the
mount table; these tests hold it to a small reference implementation of
the scan it replaced (split every mount path, keep the deepest one whose
components prefix the path's).
"""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.kernel import ROOT_CREDS, VFS, Filesystem
from repro.kernel.vfs import _normalize


def reference_find_mount(vfs: VFS, path: str):
    """Scan every mount, compare whole components, keep the deepest."""
    parts = [p for p in _normalize(path).split("/") if p]
    best, best_depth = vfs._mounts["/"], 0
    for mnt in vfs._mounts.values():
        mparts = [p for p in mnt.path.split("/") if p]
        if len(mparts) > best_depth and parts[:len(mparts)] == mparts:
            best, best_depth = mnt, len(mparts)
    return best, parts[best_depth:]


@pytest.fixture(scope="module")
def vfs():
    v = VFS()
    v.mount("/home", Filesystem("home"), creds=ROOT_CREDS)
    v.mount("/scratch", Filesystem("scratch"), creds=ROOT_CREDS)
    v.mount("/scratch/nested", Filesystem("nested"), creds=ROOT_CREDS)
    return v


@pytest.mark.parametrize("path,mount,residual", [
    ("/", "/", []),
    ("/etc/passwd", "/", ["etc", "passwd"]),
    ("/home", "/home", []),
    ("/home/", "/home", []),
    ("/home/alice/x", "/home", ["alice", "x"]),
    ("/homework/x", "/", ["homework", "x"]),
    ("/scratch/nested", "/scratch/nested", []),
    ("/scratch/nested/a/b/", "/scratch/nested", ["a", "b"]),
    ("/scratch/nestedx/a", "/scratch", ["nestedx", "a"]),
    ("/scratch/nested/../x", "/scratch", ["x"]),
    ("/scratch/nested/..", "/scratch", []),
    ("/home/../etc", "/", ["etc"]),
    ("/home/../../..", "/", []),
    ("//home//./alice", "/home", ["alice"]),
])
def test_find_mount(vfs, path, mount, residual):
    mnt, parts = vfs._find_mount(path)
    assert (mnt.path, parts) == (mount, residual)
    ref_mnt, ref_parts = reference_find_mount(vfs, path)
    assert (mnt, parts) == (ref_mnt, ref_parts)


_component = st.sampled_from(("home", "homework", "scratch", "nested",
                              "nestedx", "alice", "..", ".", ""))


@given(st.lists(_component, max_size=7))
def test_find_mount_matches_reference(vfs, components):
    path = "/" + "/".join(components)
    mnt, parts = vfs._find_mount(path)
    assert (mnt, parts) == reference_find_mount(vfs, path)
