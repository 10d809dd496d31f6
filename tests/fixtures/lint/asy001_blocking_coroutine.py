# repro: lint-module[repro.serve.fixture_asy001]
"""Known-bad fixture: ASY001 blocking calls inside serve coroutines."""

import asyncio
import subprocess
import time
from subprocess import check_output as co
from pathlib import Path


async def handle_request(path: Path) -> bytes:
    time.sleep(0.1)  # expect: ASY001
    subprocess.run(["true"])  # expect: ASY001
    co(["date"])  # expect: ASY001
    with open("config.json") as fh:  # expect: ASY001
        fh.read()
    return path.read_bytes()  # expect: ASY001


async def log_line(path: Path, line: str) -> None:
    path.write_text(line)  # expect: ASY001


async def fine(path: Path) -> str:
    # asyncio-native waiting and executor off-load are the sanctioned
    # patterns: the thunk blocks a worker thread, never the loop.
    await asyncio.sleep(0.1)
    loop = asyncio.get_running_loop()
    text = await loop.run_in_executor(None, path.read_text)
    text += await loop.run_in_executor(None, lambda: Path("x").read_text())
    return text


def sync_helper(path: Path) -> str:
    # Plain functions are driver-side: blocking is their job.
    time.sleep(0)
    return path.read_text()


async def persist(fd: int) -> None:
    # Durability and connection set-up block just as surely as a sleep.
    import os
    import socket

    os.fsync(fd)  # expect: ASY001
    socket.create_connection(("127.0.0.1", 7399))  # expect: ASY001
