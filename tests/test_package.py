import artifact


def test_every_export_resolves():
    missing = [name for name in artifact.__all__ if not hasattr(artifact, name)]
    assert missing == []
