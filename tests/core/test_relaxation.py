"""Progressive XPath relaxation heuristics."""

import pytest

from repro.core.relaxation import RelaxationEngine, relax_candidates
from repro.dom.parser import parse_html
from repro.util.errors import ElementNotFoundError


class TestCandidateGeneration:
    def test_original_comes_first(self):
        candidates = relax_candidates('//td/div[@id="x"]')
        assert candidates[0][0] == "original"
        assert candidates[0][1].to_xpath() == '//td/div[@id="x"]'

    def test_volatile_attributes_dropped(self):
        candidates = relax_candidates('//td/div[@id="x"]')
        rendered = [path.to_xpath() for _, path in candidates]
        assert "//td/div" in rendered

    def test_stable_name_attribute_kept(self):
        candidates = relax_candidates('//td/input[@id="w1_to"][@name="to"]')
        rendered = [path.to_xpath() for _, path in candidates]
        assert '//td/input[@name="to"]' in rendered

    def test_prefix_discarded(self):
        """The paper's example: //td/div[@id="id1"] -> //div[@id="id1"]."""
        candidates = relax_candidates('//td/div[@id="id1"]')
        rendered = [path.to_xpath() for _, path in candidates]
        assert '//div[@id="id1"]' in rendered

    def test_no_duplicate_candidates(self):
        candidates = relax_candidates('//td/div[@id="x"]')
        rendered = [path.to_xpath() for _, path in candidates]
        assert len(rendered) == len(set(rendered))

    def test_text_predicates_survive_relaxation(self):
        candidates = relax_candidates('//td/div[text()="Save"]')
        rendered = [path.to_xpath() for _, path in candidates]
        assert '//div[text()="Save"]' in rendered

    def test_least_relaxed_ordering(self):
        candidates = relax_candidates('//table/td/div[@id="x"]')
        descriptions = [description for description, _ in candidates]
        # attribute relaxations of the full path come before prefix drops
        first_prefix = next(i for i, d in enumerate(descriptions)
                            if "prefix" in d)
        assert "original" == descriptions[0]
        assert first_prefix > 1


class TestResolution:
    def make_doc(self, body):
        return parse_html("<html><body>%s</body></html>" % body)

    def test_exact_match_used_when_available(self):
        doc = self.make_doc('<table><tr><td><div id="x">a</div></td></tr></table>')
        engine = RelaxationEngine()
        element, heuristic = engine.resolve('//td/div[@id="x"]', doc)
        assert heuristic == "original"
        assert element.id == "x"

    def test_stale_id_relaxed_to_structure(self):
        """GMail's regenerated ids (paper IV-C): recorded id w1, live w2."""
        doc = self.make_doc('<table><tr><td><div id="w2_body">b</div></td></tr></table>')
        engine = RelaxationEngine()
        element, heuristic = engine.resolve('//td/div[@id="w1_body"]', doc)
        assert element.id == "w2_body"
        assert heuristic != "original"
        assert engine.relaxed_count() == 1

    def test_name_attribute_disambiguates(self):
        doc = self.make_doc(
            '<table><tr><td><input id="w2_to" name="to">'
            '<input id="w2_subject" name="subject"></td></tr></table>')
        engine = RelaxationEngine()
        element, _ = engine.resolve('//td/input[@id="w1_subject"][@name="subject"]',
                                    doc)
        assert element.name == "subject"

    def test_prefix_discard_finds_moved_element(self):
        """Element moved out of the td: suffix search still finds it."""
        doc = self.make_doc('<section><div id="id1">x</div></section>')
        engine = RelaxationEngine()
        element, heuristic = engine.resolve('//td/div[@id="id1"]', doc)
        assert element.id == "id1"
        assert "prefix" in heuristic

    def test_ambiguous_fallback_uses_first_match(self):
        doc = self.make_doc(
            '<table><tr><td><div id="a2">one</div></td>'
            '<td><div id="b2">two</div></td></tr></table>')
        engine = RelaxationEngine()
        element, heuristic = engine.resolve('//td/div[@id="stale"]', doc)
        assert element.text_content == "one"
        assert "ambiguous" in heuristic

    def test_unresolvable_raises(self):
        doc = self.make_doc("<p>nothing here</p>")
        with pytest.raises(ElementNotFoundError):
            RelaxationEngine().resolve('//td/div[@id="x"]', doc)

    def test_disabled_engine_requires_exact_match(self):
        doc = self.make_doc('<table><tr><td><div id="w2">b</div></td></tr></table>')
        engine = RelaxationEngine(enabled=False)
        with pytest.raises(ElementNotFoundError):
            engine.resolve('//td/div[@id="w1"]', doc)

    def test_disabled_engine_still_finds_exact(self):
        doc = self.make_doc('<div id="x">a</div>')
        engine = RelaxationEngine(enabled=False)
        element, heuristic = engine.resolve('//div[@id="x"]', doc)
        assert element.id == "x"
        assert heuristic == "original"

    def test_resolution_log_accumulates(self):
        doc = self.make_doc('<table><tr><td><div id="w2">b</div></td></tr></table>')
        engine = RelaxationEngine()
        engine.resolve('//td/div[@id="w2"]', doc)
        engine.resolve('//td/div[@id="stale"]', doc)
        assert engine.resolution_count == 2
        assert engine.relaxed_count() == 1

    def test_dom_free_to_change_around_target(self):
        """Paper: 'a web application's DOM is free to extensively change
        ... only some DOM properties in close vicinity need persist'."""
        recorded_against = '//td/div[@id="content"]'
        changed_doc = self.make_doc(
            '<header>new banner</header>'
            '<main><section><table><tr>'
            '<td><div id="content">still here</div></td>'
            '</tr></table></section></main>'
            '<footer>new footer</footer>')
        engine = RelaxationEngine()
        element, heuristic = engine.resolve(recorded_against, changed_doc)
        assert element.text_content == "still here"
        assert heuristic == "original"  # vicinity (td parent) preserved
