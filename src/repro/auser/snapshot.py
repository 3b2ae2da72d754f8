"""Page snapshots for user-experience reports.

"AUsER allows users to provide ... a snapshot of the final web page in
which the bug manifests. AUsER allows users to send developers only a
part of the snapshot, such as the button that has the wrong name,
leaving out private details displayed on the web page." (paper, VI)

A developer-side replay of a user's trace reproduces the snapshot with
:meth:`PageSnapshot.capture` on the page the session engine ends on
(:meth:`~repro.session.engine.SessionEngine.current_document`), without
reaching into driver internals.
"""

from repro.dom.serialize import serialize
from repro.util.errors import ElementNotFoundError
from repro.xpath.evaluator import evaluate


class PageSnapshot:
    """A serialized view of (part of) a page at report time."""

    def __init__(self, html, url="", region_xpath=None):
        self.html = html
        self.url = url
        self.region_xpath = region_xpath

    @classmethod
    def full(cls, document):
        """Snapshot the whole page."""
        return cls(serialize(document), url=document.url)

    @classmethod
    def region(cls, document, xpath):
        """Snapshot only the subtree the user chose to share."""
        matches = evaluate(xpath, document)
        if not matches:
            raise ElementNotFoundError(
                "cannot snapshot %r: no matching element" % xpath)
        return cls(serialize(matches[0]), url=document.url,
                   region_xpath=str(xpath))

    @classmethod
    def redacted(cls, document, hidden_xpaths):
        """Full snapshot with chosen subtrees blanked out.

        The complement of :meth:`region`: share everything *except* the
        private parts.
        """
        clone = _clone_document(document)
        for xpath in hidden_xpaths:
            for element in evaluate(xpath, clone):
                for child in list(element.children):
                    element.remove_child(child)
                element.attributes = {
                    key: value for key, value in element.attributes.items()
                    if key in ("id", "class", "name")
                }
                element.set_attribute("data-redacted", "true")
        return cls(serialize(clone), url=document.url)

    @classmethod
    def capture(cls, document, region_xpath=None, hidden_xpaths=None):
        """One entry point for the three sharing modes.

        - ``region_xpath``: share only that part of the page;
        - ``hidden_xpaths``: share the page but blank these subtrees;
        - neither: share the whole page.
        """
        if region_xpath is not None:
            return cls.region(document, region_xpath)
        if hidden_xpaths:
            return cls.redacted(document, hidden_xpaths)
        return cls.full(document)

    @property
    def is_partial(self):
        return self.region_xpath is not None

    def __repr__(self):
        scope = self.region_xpath if self.is_partial else "full page"
        return "PageSnapshot(%s, %d bytes)" % (scope, len(self.html))


def _clone_document(document):
    from repro.dom.parser import parse_html_uncached

    return parse_html_uncached(serialize(document), url=document.url)
