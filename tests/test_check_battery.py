"""The whole `attnlab check` battery passes."""

from attnlab.cli import main


def test_every_check_passes(capsys):
    code = main(["check"])
    assert code == 0
    assert "10/10 checks passed" in capsys.readouterr().out
