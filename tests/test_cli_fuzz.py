"""Bounded fuzz of the command line: any argv ends in a documented exit code.

Hypothesis draws argv for every command from valid, invalid and over-cap
values of each flag, and `--poly` text either from a token alphabet that
includes a superscript digit, `sqrt(`, `^` and unbalanced parentheses, or
as a small homogeneous form.  Tokens are joined by spaces, so numbers never
run together and every exponent is at most 4.  The inputs stay small (nvars
<= 6 among the valid values, `--count` <= 3), so every example runs in well
under a second.
"""

from datetime import timedelta

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from zmckit import cli

VALID_FAMILIES = (
    "ads:1,1,1", "ads:2,1,0", "ds1:1,1", "ds2:1", "ds2:3", "clifford:1,1", "lawson:2,3",
    "lawson:1,1", "lawson:4,3",
)
BAD_FAMILIES = (
    # bad kind, arity or values, or a member without a sampler
    "ads:0,1,1", "ads:1,1", "ads:a,b,c", "foo:1", "", "lawson:2,2", "lawson:3,3",
    "ds2:-1", "clifford:1",
    # one above a family cap
    "lawson:99,103", "ads:50,49,0", "ds2:98", "clifford:50,49",
)


def _mostly(valid, invalid) -> st.SearchStrategy:
    """Two draws in three from `valid`, so most runs get past the usage checks."""
    return st.one_of(valid, valid, invalid)


FAMILIES = _mostly(st.sampled_from(VALID_FAMILIES), st.sampled_from(BAD_FAMILIES))
POLY_TOKENS = (
    "x1", "x2", "x3", "x6", "x7", "x0", "x", "1", "2", "3", "4", "1/2", "+", "-", "*", "^",
    "(", ")", "sqrt(", "²", "@",
)


@st.composite
def _form(draw) -> str:
    """A homogeneous sum of up to three terms c x_i^e or (x_i + x_j)^e."""
    e = draw(st.integers(1, 4))
    term = st.one_of(
        st.builds("{} x{} ^ {}".format, st.sampled_from(("2", "1/2", "sqrt( 2 )")),
                  st.integers(1, 6), st.just(e)),
        st.builds("( x{} + x{} ) ^ {}".format, st.integers(1, 6), st.integers(1, 6), st.just(e)),
    )
    return " - ".join(draw(st.lists(term, min_size=1, max_size=3)))


# Token soup, which is mostly a syntax error, and forms, which reach the
# residual.
POLY_TEXTS = _mostly(_form(), st.lists(st.sampled_from(POLY_TOKENS), max_size=10).map(" ".join))

# Valid values, then invalid and over-cap ones.
VALUES = {
    flag: _mostly(st.sampled_from(valid), st.sampled_from(invalid)).map(str)
    for flag, valid, invalid in (
        ("--nvars", (2, 3, 4, 5, 6), (-1, 0, 1, 101)),
        ("--sig", ("2,-1", "1,1", "0,1", "1,-1"), ("7,1", "-1,1", "2", "a,b")),
        ("--count", (1, 2, 3), (-1, 0, 10001)),
        ("--seed", (0, 7), (-1,)),
        ("--format", ("json", "csv"), ("xml",)),
    )
}
# The flags each command reads besides --family and --out; a flag of another
# command is drawn now and then too.
FLAGS = {
    "verify": ("--poly", "--nvars", "--sig"),
    "classify": ("--poly", "--nvars"),
    "spectrum": ("--count", "--seed", "--format"),
    "sample": ("--count", "--seed", "--format"),
    "report": ("--count", "--seed"),
}


@st.composite
def _argv(draw, out_dir: str) -> list[str]:
    command = draw(st.sampled_from((*FLAGS, "nope")))
    argv = [command]
    flags = list(FLAGS.get(command, ()))
    families = draw(st.sampled_from((1, 1, 1, 0, 2)))
    # verify and classify take --family, or --poly with --nvars (and --sig).
    poly_input = "--poly" in flags and draw(st.booleans())
    if poly_input:
        families = draw(st.sampled_from((0, 0, 0, 1)))
    elif "--poly" in flags and draw(st.integers(0, 3)):
        flags = []
    if draw(st.integers(0, 4)) == 0:
        flags.append(draw(st.sampled_from(("--poly", *VALUES))))
    for _ in range(families):
        argv += ["--family", draw(FAMILIES)]
    for flag in flags:
        if not (poly_input or draw(st.booleans())):
            continue
        if flag == "--poly":
            argv += [flag, draw(POLY_TEXTS)]
        else:
            argv += [flag, draw(VALUES[flag])]
    if draw(st.booleans()):
        argv += ["--out", draw(st.sampled_from((f"{out_dir}/out.txt", f"{out_dir}/no/out.txt")))]
    return argv


def test_cli_never_raises_or_prints_a_traceback(capsys, tmp_path):
    @settings(max_examples=300, deadline=timedelta(seconds=5),
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(_argv(str(tmp_path)))
    def check(argv):
        code = cli.main(argv)
        captured = capsys.readouterr()
        assert code in (0, 1, 2, 3), argv
        assert "Traceback" not in captured.out + captured.err, argv

    check()
