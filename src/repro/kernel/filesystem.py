"""A replicated in-memory VFS namespace.

"Even if the kernel is running on another ISA, the application accesses
the same file system."  The file store is the replicated state of the
filesystem service; operations issued from a kernel other than the
file's current home charge messaging time, after which the file's pages
are considered local (migrated with the reader, like the DSM).
"""

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple


@dataclass
class VfsFile:
    path: str
    data: List[int] = field(default_factory=list)
    home_kernel: str = ""


class VirtualFileSystem:
    """One mount namespace's file tree, shared by all kernels."""

    def __init__(self, messaging, home_kernel: str):
        self.messaging = messaging
        self.home = home_kernel
        self._files: Dict[str, VfsFile] = {}
        self._fds: Dict[int, Tuple[str, int]] = {}  # fd -> (path, offset)
        self._next_fd = 3  # 0..2 are stdio

    # ------------------------------------------------------------ paths

    def create(self, path: str, data: Optional[List[int]] = None) -> None:
        self._files[path] = VfsFile(path, list(data or []), self.home)

    def exists(self, path: str) -> bool:
        return path in self._files

    # -------------------------------------------------------------- fds

    def open(self, path: str, kernel: str, create: bool = False) -> Tuple[int, float]:
        """Returns (fd, service_time)."""
        cost = 0.0
        if path not in self._files:
            if not create:
                raise FileNotFoundError(path)
            self.create(path)
        f = self._files[path]
        if f.home_kernel != kernel:
            cost = self.messaging.rpc("vfs.open", kernel, f.home_kernel, 256, 64)
        fd = self._next_fd
        self._next_fd += 1
        self._fds[fd] = (path, 0)
        return fd, cost

    def close(self, fd: int) -> float:
        self._fds.pop(fd, None)
        return 0.0

    def read(self, fd: int, count: int, kernel: str) -> Tuple[List[int], float]:
        path, offset = self._require(fd)
        f = self._files[path]
        cost = 0.0
        if f.home_kernel != kernel:
            cost = self.messaging.rpc("vfs.read", kernel, f.home_kernel, 64, count)
            f.home_kernel = kernel  # data now cached locally
        data = f.data[offset : offset + count]
        self._fds[fd] = (path, offset + len(data))
        return data, cost

    def write(self, fd: int, values: List[int], kernel: str) -> Tuple[int, float]:
        path, offset = self._require(fd)
        f = self._files[path]
        cost = 0.0
        if f.home_kernel != kernel:
            cost = self.messaging.rpc(
                "vfs.write", kernel, f.home_kernel, 64 + len(values), 64
            )
        end = offset + len(values)
        if len(f.data) < end:
            f.data.extend([0] * (end - len(f.data)))
        f.data[offset:end] = values
        self._fds[fd] = (path, end)
        return len(values), cost

    def _require(self, fd: int) -> Tuple[str, int]:
        try:
            return self._fds[fd]
        except KeyError:
            raise ValueError(f"bad file descriptor {fd}") from None
