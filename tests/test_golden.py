"""Byte pins of the CLI's stable output contracts.

Each case runs one ``countones`` command in-process and compares the sha256
of its exit code, stdout, stderr and ``--out`` file with a recorded digest,
so a change to any seeded output byte fails here.  Record a new digest only
together with an intended contract change, and log it in CHANGES.md.
"""

import hashlib
import io
from contextlib import redirect_stderr, redirect_stdout

import pytest

from countones.cli import build_parser, main

# command line -> sha256; a trailing ``--out`` gets a scratch path
GOLDEN = {
    "verify --out":
        "cc71823937b8724d51ce6e7fe5e527fec68bc5e355a615f7a6f370c8e767a5d1",
    "verify --width 3":
        "6747b8590ff735bff15d214a32870a1ebb8c952791ba760e81e6068d591fdf48",
    "table":
        "39dcd5c0614836aa18aaef63b860e9c672f1d64247f5979852c70d7481f031e0",
    "table --format csv":
        "5aeabc249cb6c22d6dab4349a751fdac2abc9d4b24d72785e91b35c9d299af70",
    "sweep --width 8 --algo combined":
        "d05e6be285a3cb9e44d5deb95be1cbd305665d336fd9a7c419b0f4f9521b9272",
    "sweep --width 8 --algo combined --format markdown":
        "cdf4469e5933ff6cbcb90395f1f2f4747e0125df21373c09a2d1f3cfe9f13f7a",
    # 8,192 inputs: two chunks of lanes
    "sweep --width 13 --algo combined":
        "4a5c5275de4c1c865c619af3ebacbbd050d1664d3a55b1047a1fb559ab3e1f71",
    "sweep --width 21 --algo dense --seed 3":
        "c3e73987d70e7f67afcd88a1e7caa8fe1712fda9045dd622287af48520470f8e",
    "sweep --width 2 --algo twobit --format markdown":
        "e5b3bacf0ff1ab1a4d0438e2f66ca4fb7f34c1ffa839492495da2726e61bb32c",
    "sweep --width 4 --algo wegner --budget 5":
        "b21f0b561e4a7c0e2cfed841379c718953bc65ccfe207ca78faa099a7c7c4c22",
    # the sweep-wide benchmark command: 4,096 seeded 64-bit inputs
    "sweep --width 64 --algo combined --seed 1":
        "6722d5285f27793a08d923283a809a01c8655bf6d30f20fdd97179bc13973cf7",
    # 1,116 of 4,096 lanes cut by the budget, beside lanes that count
    "sweep --width 24 --algo wegner --budget 80 --seed 2":
        "1ef11a11482fa806bebd0fa80c4e7b187f4d414b5156faa830570a136c565cba",
    "gen --algo wegner":
        "ad865013df52d01c95869bf894477d49bcb5c1a596eeb8a169e9146c3e5b955e",
    "gen --algo dense":
        "ce4918d11f229b2e5d7179e5a35c4c5d136571e32b7e47f8c569c199b8d7024c",
    "gen --algo combined":
        "1faac361f9def2ffe22c7877448086f5e3b2582247fcfc15be08793263fa2636",
    "gen --algo twobit":
        "95ef92df8bee3c7e4d6ef65055748a317310aa723ebcd19b13b65b2754593a4d",
    "gen --algo combined --width 64":
        "ce64b4b56e2539d2b44709cb09e2f58648bb86e5879bcc409f13333ee10d70a8",
    "gen --algo constant --target 1000":
        "584a63010bdf3a49e6a77e7d16e0fdc820e85e907a3fa10def04cd72b16f8c98",
    "fuzz --seed 4 --count 500 --out":
        "2ecd519fbb8133e5cf60e0efa3bd4e574020126f7ddf57fbc161ad6c9662f230",
    # long budgets, so that most runs and both runs of most flip probes
    # fast-forward over their cycles
    "fuzz --seed 1 --count 1000 --budget 4096 --out":
        "a9deece85cd8cbc9401e6f3245cdea5a0bbe766c67081cb0ff9b9269f02fe773",
    # a budget that most counter loops run out of: their runs jump over passes
    "fuzz --seed 1 --count 1000 --budget 20000":
        "ce159be83f9bd6065ea35642930b81c7ef3f5bc15c827a85eaebc4e641346b34",
    # a budget past the passes of most counter loops: runs and flip probes
    # alike jump over them, to the output of runs stepped one by one
    "fuzz --seed 3 --count 500 --budget 1000000":
        "c68e28a4b99e14ec790552dc8299d26fec1f91b8c37e232561a36d2fa7415d23",
}

# sha256 of the ``gen`` text of wegner, dense and combined at widths 1..64
GEN_ALL_WIDTHS = "1f92a950b996e0bb3f33b60531903b9567e8bd8f02dd43bf0df1d1b47bd37063"


def run_digest(command: str, out_path) -> str:
    argv = command.split()
    writes = argv[-1] == "--out"
    if writes:
        argv.append(str(out_path))
    stdout, stderr = io.StringIO(), io.StringIO()
    with redirect_stdout(stdout), redirect_stderr(stderr):
        code = main(argv)
    written = out_path.read_bytes() if writes else b""
    blob = b"\0".join([str(code).encode(), stdout.getvalue().encode(),
                       stderr.getvalue().encode(), written])
    return hashlib.sha256(blob).hexdigest()


def gen_all_widths_digest() -> str:
    texts = []
    for algo in ("wegner", "dense", "combined"):
        for width in range(1, 65):
            stdout = io.StringIO()
            with redirect_stdout(stdout):
                assert main(["gen", "--algo", algo, "--width", str(width)]) == 0
            texts.append(stdout.getvalue())
    return hashlib.sha256("\0".join(texts).encode()).hexdigest()


@pytest.mark.parametrize("command", GOLDEN)
def test_output_is_byte_identical(command, tmp_path):
    assert run_digest(command, tmp_path / "out.csv") == GOLDEN[command]


def test_gen_text_at_every_width():
    assert gen_all_widths_digest() == GEN_ALL_WIDTHS


def test_fuzz_campaigns_in_one_process_leave_each_other_as_recorded(tmp_path):
    # the instruction memo and the adversary schedules live as long as the
    # process, as the benchmark's passes do: every fuzz pin in turn, twice over,
    # must read as recorded
    fuzz = [command for command in GOLDEN if command.startswith("fuzz ")]
    assert len(fuzz) == 4
    for command in fuzz * 2:
        assert run_digest(command, tmp_path / "out.csv") == GOLDEN[command], command


def test_a_rejected_call_leaves_the_next_one_as_recorded(tmp_path):
    # main parses with one parser per process; argparse's exit must not change it
    for _ in range(2):
        stderr = io.StringIO()
        with redirect_stderr(stderr), pytest.raises(SystemExit) as err:
            main(["sweep", "--width", "4", "--algo", "nope"])
        assert err.value.code == 2 and "invalid choice: 'nope'" in stderr.getvalue()
        assert run_digest("verify --width 3", tmp_path / "out.csv") == GOLDEN["verify --width 3"]
    assert build_parser() is not build_parser()
