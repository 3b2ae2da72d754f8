"""Geometry primitives for the layout engine."""


class Rect:
    """Axis-aligned rectangle in page coordinates (pixels)."""

    __slots__ = ("x", "y", "width", "height")

    def __init__(self, x=0, y=0, width=0, height=0):
        self.x = x
        self.y = y
        self.width = width
        self.height = height

    @property
    def right(self):
        return self.x + self.width

    @property
    def bottom(self):
        return self.y + self.height

    @property
    def center(self):
        """(x, y) of the rectangle's center, rounded to integers."""
        return (int(self.x + self.width / 2), int(self.y + self.height / 2))

    def contains(self, x, y):
        """True if the point lies inside (inclusive of top/left edges)."""
        return self.x <= x < self.right and self.y <= y < self.bottom

    def translated(self, dx, dy):
        """A copy moved by (dx, dy)."""
        return Rect(self.x + dx, self.y + dy, self.width, self.height)

    def __eq__(self, other):
        return (
            isinstance(other, Rect)
            and (self.x, self.y, self.width, self.height)
            == (other.x, other.y, other.width, other.height)
        )

    def __repr__(self):
        return "Rect(x=%g, y=%g, w=%g, h=%g)" % (
            self.x, self.y, self.width, self.height,
        )


class LayoutBox:
    """The computed box of one element.

    ``depth`` is the element's number of ancestors when the box was
    computed, which hit testing compares.
    """

    __slots__ = ("element", "rect", "depth")

    def __init__(self, element, rect, depth):
        self.element = element
        self.rect = rect
        self.depth = depth

    def __repr__(self):
        return "LayoutBox(<%s>, %r)" % (self.element.tag, self.rect)
