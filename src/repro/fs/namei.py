"""Client-side path resolution (``namei``) with NFS remote roots.

Every machine resolves paths in its own *namespace*: its local
filesystem, plus a virtual ``/n`` directory holding the root of every
other machine in the cluster (the 8th-edition convention the paper's
site followed).  Two properties of real NFS that the paper's
user-level tools depend on are reproduced faithfully:

* **symbolic links are resolved on the client** — a link read from a
  remote filesystem is interpreted in the *calling* machine's
  namespace, so a link ``/usr -> /n/brador/usr`` stored on machine
  ``classic`` does not lead back to classic's disk when followed from
  another machine;
* **``/n`` is not exported** — it is a client-side mount namespace,
  so a path like ``/n/classic/n/brador/usr/foo`` fails with ENOENT
  ("NFS does not allow this syntax"), which is exactly why
  ``dumpproc`` must resolve symlinks *before* rewriting path names.
"""

import functools

from repro.errors import (UnixError, ENOENT, ENOTDIR, ELOOP, EACCES,
                          EINVAL)
from repro.fs.paths import split_components, is_absolute

#: maximum symlink expansions in one resolution (4.2BSD used 8)
MAXSYMLINKS = 8

#: the conventional mount directory name
MOUNT_DIR = "n"


def _no_charge(op, fs):
    pass


@functools.lru_cache(maxsize=4096)
def _components(path):
    """``path``'s components as a tuple, memoized: the same few
    hundred names are resolved over and over."""
    return tuple(split_components(path))


class ResolvedPath:
    """The result of a :meth:`Namespace.resolve` call."""

    def __init__(self, fs, inode, parent_fs, parent, name):
        self.fs = fs  #: filesystem owning the inode (None if missing)
        self.inode = inode  #: final inode, or None (want_parent mode)
        self.parent_fs = parent_fs
        self.parent = parent  #: containing directory inode
        self.name = name  #: final component name

    @property
    def exists(self):
        return self.inode is not None

    def __repr__(self):
        return "ResolvedPath(%r on %s)" % (
            self.name, self.fs.hostname if self.fs else "?")


class Namespace:
    """One machine's view of all filesystems."""

    def __init__(self, local_fs, remote_roots=None, charge=None):
        """``remote_roots`` maps hostname -> FileSystem (may be a dict
        or a callable); ``charge(op, fs)`` is invoked for every
        directory lookup and symlink read so the kernel can account
        local vs. NFS costs (``op`` is ``"lookup"`` or ``"readlink"``).
        """
        self.local_fs = local_fs
        self._remote_roots = remote_roots or {}
        self.charge = charge or _no_charge

    @property
    def hostname(self):
        return self.local_fs.hostname

    def remote_fs(self, hostname):
        """The exported filesystem of ``hostname``, or None."""
        if callable(self._remote_roots):
            return self._remote_roots(hostname)
        return self._remote_roots.get(hostname)

    def known_hosts(self):
        if callable(self._remote_roots):
            raise TypeError("host enumeration not available")
        return sorted(self._remote_roots)

    # -- resolution ----------------------------------------------------------

    def resolve(self, path, cwd=None, follow=True, want_parent=False):
        """Resolve ``path`` to a :class:`ResolvedPath`.

        ``cwd`` is a ``(fs, inode)`` pair for relative paths (defaults
        to the local root).  ``follow`` controls whether a symlink in
        the *final* component is followed.  With ``want_parent`` the
        final component may be missing; the parent directory and leaf
        name are returned so the caller can create it.

        Only the split of ``path`` into components is memoized; the
        walk itself — every charged lookup and the ``/n`` server
        checks — runs on every call.
        """
        if not path:
            raise UnixError(ENOENT, "empty path")
        components = _components(path)
        local_fs = self.local_fs
        if cwd is None or is_absolute(path):
            fs, inode = local_fs, local_fs.root
        else:
            fs, inode = cwd
        if not components:
            # the path was "/" (or ".")
            return ResolvedPath(fs, inode, fs, inode.parent or inode, ".")

        charge = self.charge
        in_mount = False  # inside the virtual /n directory
        nlinks = 0
        parent_fs, parent = None, None
        index = 0
        last = len(components) - 1
        while index <= last:
            name = components[index]
            is_final = index == last
            index += 1

            if in_mount:
                if name == ".":
                    continue
                if name == "..":
                    in_mount = False
                    fs, inode = local_fs, local_fs.root
                    continue
                remote = self.remote_fs(name)
                if remote is None:
                    if is_final and want_parent:
                        raise UnixError(EACCES,
                                        "/n is a mount namespace")
                    raise UnixError(ENOENT, "/n/%s" % name)
                in_mount = False
                fs, inode = remote, remote.root
                parent_fs, parent = remote, remote.root
                continue

            if not inode.is_dir():
                raise UnixError(ENOTDIR, name)

            if name == "..":
                if inode is not fs.root:
                    inode = inode.parent
                elif fs is not local_fs:
                    in_mount = True
                # else: root's .. is root
                continue
            if name == ".":
                continue

            # the /n mount namespace exists only at the *local* root
            if (name == MOUNT_DIR and fs is local_fs
                    and inode is fs.root
                    and MOUNT_DIR not in inode.entries):
                if is_final and want_parent:
                    raise UnixError(EACCES, "/n is a mount namespace")
                in_mount = True
                continue

            charge("lookup", fs)
            try:
                child = fs.lookup(inode, name)
            except UnixError as err:
                if err.errno == ENOENT and is_final and want_parent:
                    return ResolvedPath(None, None, fs, inode, name)
                raise

            if child.is_link() and (follow or not is_final):
                nlinks += 1
                if nlinks > MAXSYMLINKS:
                    raise UnixError(ELOOP, path)
                charge("readlink", fs)
                target = child.target
                components = _components(target) + components[index:]
                index = 0
                last = len(components) - 1
                if is_absolute(target):
                    # client-side resolution: restart from *our* root
                    fs, inode = local_fs, local_fs.root
                if not components:
                    raise UnixError(ENOENT, "empty symlink target")
                continue

            if is_final:
                return ResolvedPath(fs, child, fs, inode, name)
            parent_fs, parent = fs, inode
            inode = child

        # components exhausted via trailing "." or ".."
        if want_parent:
            raise UnixError(EINVAL, path)
        if in_mount:
            raise UnixError(EACCES, "/n is a mount namespace")
        return ResolvedPath(fs, inode, parent_fs or fs,
                            parent or inode.parent or inode, ".")

    # -- convenience -----------------------------------------------------------

    def resolve_symlinks(self, path):
        """Expand every symbolic link in an absolute ``path`` and
        return the resulting link-free path string.

        This mirrors the algorithm the paper prescribes for the
        user-level tools — walk the name a component at a time,
        calling ``readlink()`` on each prefix and splicing targets in
        — and is used by tests; the real ``dumpproc`` implementation
        does the same thing through system calls
        (:mod:`repro.core.symlinks`).
        """
        from repro.fs.paths import normalize
        if not is_absolute(path):
            raise ValueError("resolve_symlinks requires an absolute path")
        pending = split_components(normalize(path))
        resolved = "/"
        expansions = 0
        while pending:
            component = pending.pop(0)
            candidate = resolved.rstrip("/") + "/" + component
            try:
                found = self.resolve(candidate, follow=False)
                inode = found.inode
            except UnixError:
                inode = None
            if inode is not None and inode.is_link():
                expansions += 1
                if expansions > MAXSYMLINKS:
                    raise UnixError(ELOOP, path)
                target = inode.target
                if is_absolute(target):
                    resolved = "/"
                    pending = split_components(target) + pending
                else:
                    pending = split_components(target) + pending
                continue
            resolved = normalize(candidate)
        return resolved
