"""Every energy report and reproduced table keeps its committed bytes
(tests/golden.py writes tests/golden/energy.json)."""

import golden


def test_energy_and_table_outputs_match_the_committed_file():
    want = golden.read_golden()
    got = golden.energy_outputs()
    changed = [key for key in {**want, **got} if want.get(key) != got.get(key)]
    assert not changed, "moved:\n" + "\n".join(changed)
    # the file is what --write would write
    with open(golden.GOLDEN) as f:
        assert f.read() == golden.encode(got)

