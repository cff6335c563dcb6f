"""The README's interactive examples, run through doctest.

doctest.testfile would read each closing code fence as expected output,
so the fenced blocks are cut out here and every block whose first line
starts with ">>>" runs in one shared namespace, in README order.
"""

import doctest
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def interactive_blocks(text):
    """(line number, body) of each fenced block whose body starts with >>>."""
    for match in re.finditer(r"^```[^\n]*\n(.*?)^```", text, re.M | re.S):
        body = match.group(1)
        if body.startswith(">>>"):
            yield text.count("\n", 0, match.start(1)), body


def test_readme_examples():
    text = README.read_text()
    blocks = list(interactive_blocks(text))
    assert blocks, "README has no >>> examples"
    parser = doctest.DocTestParser()
    runner = doctest.DocTestRunner()
    globs = {}
    for lineno, body in blocks:
        test = parser.get_doctest(body, globs, f"README.md:{lineno + 1}", str(README), lineno)
        runner.run(test, clear_globs=False)
        globs = test.globs  # DocTest works on a copy; later blocks see its names
    result = runner.summarize(verbose=False)
    assert result.failed == 0, f"{result.failed} of {result.attempted} README examples failed"
