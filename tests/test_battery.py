"""tools/battery.py: its commands exit as it expects at this tree, and its comparison.

The battery itself (two trees, one process per command) is not run here.
"""

import importlib.util
import json
from pathlib import Path

import pytest

from frqme.cli import main

BATTERY = Path(__file__).resolve().parents[1] / "tools" / "battery.py"
_spec = importlib.util.spec_from_file_location("frqme_battery", BATTERY)
battery = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(battery)
COMMANDS = battery.commands()


@pytest.mark.parametrize("name, argv, config, expected", COMMANDS,
                         ids=[command[0] for command in COMMANDS])
def test_command_exits_with_its_expected_code(tmp_path, capsys, name, argv, config, expected):
    if config is not None:
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config), encoding="utf-8")
        argv = [*argv, "--config", str(path)]
    assert main([*argv, "--out", str(tmp_path / "out")]) == expected


def test_largest_difference_reads_only_the_numbers():
    assert battery.largest_difference('{"a": 1.5e-3}', '{"a": 1.5e-3}') == 0.0
    assert battery.largest_difference("x,0.25,-1\r\n", "x,0.5,-1\r\n") == 0.25
    assert battery.largest_difference("group_0 1e-16", "group_0 -1e-16") == 2e-16
    assert battery.largest_difference("inf 1", "inf 1") == 0.0
    assert battery.largest_difference("verdict pass 1", "verdict fail 1") is None
    assert battery.largest_difference("1,2", "1,2,3") is None


def test_verdict_passes_only_last_bit_moves():
    assert battery.verdict("t,0.5\n", "t,0.5\n") == ("identical", True)
    assert battery.verdict("p 0.25", "p 0.25000000000000022") == (
        "largest absolute difference 2.22e-16", True)
    assert battery.verdict("p 0.25", "p 0.75") == ("largest absolute difference 0.5", False)
    assert battery.verdict("p 0.25", "p 0.2500000000000011")[1] is False
    assert battery.verdict("pass 1", "fail 1") == ("differs in text", False)
    assert battery.verdict("1", None) == ("missing on one side", False)
