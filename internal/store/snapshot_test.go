package store

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"strings"
	"testing"

	"repro/internal/dewey"
	"repro/internal/index"
	"repro/internal/keyword"
	"repro/internal/shard"
	"repro/internal/synopsis"
	"repro/internal/xmark"
	"repro/internal/xmltree"
)

func genDoc(t testing.TB, items int) *xmltree.Document {
	t.Helper()
	doc, err := xmark.Generate(xmark.Options{Seed: 5, Items: items})
	if err != nil {
		t.Fatal(err)
	}
	return doc
}

// fullSnapshot builds a Snapshot carrying every optional section: the
// synopsis, an item-scope keyword index, and partition layouts for 1
// and 4 shards.
func fullSnapshot(t testing.TB, doc *xmltree.Document) *Snapshot {
	t.Helper()
	s := &Snapshot{
		Doc:      doc,
		Synopsis: synopsis.Build(doc).Flatten(),
		Keyword:  []*keyword.Flat{keyword.Build(doc, "item").Flatten()},
	}
	for _, p := range []int{1, 4} {
		c, err := shard.Split(doc, p)
		if err != nil {
			t.Fatal(err)
		}
		lay := ShardLayout{P: p}
		for _, sp := range c.Spine() {
			lay.Spine = append(lay.Spine, sp.Ord)
		}
		for _, part := range c.Parts() {
			ords := make([]int, len(part.Units))
			for i, u := range part.Units {
				ords[i] = u.Ord
			}
			lay.Units = append(lay.Units, ords)
		}
		s.Shards = append(s.Shards, lay)
	}
	return s
}

func writeSnap(t testing.TB, s *Snapshot) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteSnapshot(&buf, s); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func parseSnap(t testing.TB, raw []byte) *SnapshotReader {
	t.Helper()
	r, err := ParseSnapshot(raw)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestSnapshotRoundTripStructure(t *testing.T) {
	doc := genDoc(t, 30)
	r := parseSnap(t, writeSnap(t, &Snapshot{Doc: doc}))
	got := r.Document()
	if got.Size() != doc.Size() {
		t.Fatalf("size %d != %d", got.Size(), doc.Size())
	}
	if len(got.Roots) != len(doc.Roots) {
		t.Fatalf("roots %d != %d", len(got.Roots), len(doc.Roots))
	}
	for i := range doc.Nodes {
		a, b := doc.Nodes[i], got.Nodes[i]
		if a.Tag != b.Tag || a.Value != b.Value || !a.ID.Equal(b.ID) || a.Ord != b.Ord {
			t.Fatalf("node %d: %v vs %v", i, a, b)
		}
		if (a.Parent == nil) != (b.Parent == nil) {
			t.Fatalf("node %d parent presence mismatch", i)
		}
		if a.Parent != nil && a.Parent.Ord != b.Parent.Ord {
			t.Fatalf("node %d parent ord %d vs %d", i, a.Parent.Ord, b.Parent.Ord)
		}
		if len(a.Children) != len(b.Children) {
			t.Fatalf("node %d children %d vs %d", i, len(a.Children), len(b.Children))
		}
		for j := range a.Children {
			if a.Children[j].Ord != b.Children[j].Ord {
				t.Fatalf("node %d child %d ord mismatch", i, j)
			}
		}
	}
}

func TestSnapshotMatchesIndex(t *testing.T) {
	doc := genDoc(t, 40)
	ix := index.Build(doc)
	r := parseSnap(t, writeSnap(t, &Snapshot{Doc: doc}))

	tags := []string{"item", "description", "parlist", "text", "mail", "name", "absent"}
	for _, tag := range tags {
		if ix.CountTag(tag) != r.CountTag(tag) {
			t.Fatalf("CountTag(%s): %d vs %d", tag, ix.CountTag(tag), r.CountTag(tag))
		}
		a, b := ix.Nodes(tag), r.Nodes(tag)
		if len(a) != len(b) {
			t.Fatalf("Nodes(%s): %d vs %d", tag, len(a), len(b))
		}
		for i := range a {
			if a[i].Ord != b[i].Ord {
				t.Fatalf("Nodes(%s)[%d]: ord %d vs %d", tag, i, a[i].Ord, b[i].Ord)
			}
		}
	}

	// A spread of content predicates, including ones the value postings
	// serve and ones that filter the tag postings.
	vts := []index.ValueTest{
		index.ValueEq(""),
		index.Test("contains", "a"),
		index.Test("!=", "x"),
		index.Test(">", "100"),
	}
	if names := ix.Nodes("name"); len(names) > 0 {
		vts = append(vts, index.ValueEq(names[0].Value))
	}
	for _, anchorIx := range ix.Nodes("item") {
		anchorR := r.Document().Nodes[anchorIx.Ord]
		for _, tag := range []string{"parlist", "text", "incategory", "name"} {
			for _, ax := range []dewey.Axis{dewey.Self, dewey.Child, dewey.Descendant} {
				for _, vt := range vts {
					a := ix.AppendCandidates(nil, anchorIx, ax, tag, vt)
					b := r.AppendCandidates(nil, anchorR, ax, tag, vt)
					if len(a) != len(b) {
						t.Fatalf("AppendCandidates(%v,%v,%s,%v): %d vs %d", anchorIx, ax, tag, vt, len(a), len(b))
					}
					for i := range a {
						if a[i].Ord != b[i].Ord {
							t.Fatalf("AppendCandidates(%v,%v,%s,%v)[%d]: ord mismatch", anchorIx, ax, tag, vt, i)
						}
					}
				}
			}
		}
	}
	for _, tag := range []string{"parlist", "incategory", "name"} {
		for _, vt := range vts {
			a := index.PredicateStatsOf(ix, "item", dewey.Descendant, tag, vt)
			b := index.PredicateStatsOf(r, "item", dewey.Descendant, tag, vt)
			if a != b {
				t.Fatalf("PredicateStatsOf(%s,%v): %+v vs %+v", tag, vt, a, b)
			}
			am, bm := ix.NodesMatching(tag, vt), r.NodesMatching(tag, vt)
			if len(am) != len(bm) {
				t.Fatalf("NodesMatching(%s,%v): %d vs %d", tag, vt, len(am), len(bm))
			}
			for i := range am {
				if am[i].Ord != bm[i].Ord {
					t.Fatalf("NodesMatching(%s,%v)[%d]: ord mismatch", tag, vt, i)
				}
			}
		}
	}
}

func TestSnapshotSynopsisKeywordLayouts(t *testing.T) {
	doc := genDoc(t, 40)
	snap := fullSnapshot(t, doc)
	r := parseSnap(t, writeSnap(t, snap))

	want := synopsis.Build(doc)
	if r.Synopsis() == nil {
		t.Fatal("snapshot lost the synopsis")
	}
	if r.Synopsis().Fingerprint() != want.Fingerprint() {
		t.Fatal("persisted synopsis fingerprint diverges from a fresh build")
	}

	scopes := r.KeywordScopes()
	if len(scopes) != 1 || scopes[0] != "item" {
		t.Fatalf("keyword scopes = %v", scopes)
	}
	built := keyword.Build(doc, "item")
	got, ok, err := r.Keyword("item")
	if err != nil || !ok {
		t.Fatalf("Keyword(item): ok=%v err=%v", ok, err)
	}
	if got.Scopes() != built.Scopes() {
		t.Fatalf("scopes %d vs %d", got.Scopes(), built.Scopes())
	}
	for _, w := range []string{"gold", "a", "character", "xyzzy"} {
		if got.IDF(w) != built.IDF(w) {
			t.Fatalf("IDF(%s): %v vs %v", w, got.IDF(w), built.IDF(w))
		}
		a, b := built.Postings(w), got.Postings(w)
		if len(a) != len(b) {
			t.Fatalf("Postings(%s): %d vs %d", w, len(a), len(b))
		}
		for i := range a {
			if a[i].TF != b[i].TF || a[i].Node.Ord != b[i].Node.Ord {
				t.Fatalf("Postings(%s)[%d] mismatch", w, i)
			}
		}
	}
	if _, ok, _ := r.Keyword("mail"); ok {
		t.Fatal("unexpected keyword index for unpersisted scope")
	}

	for _, wantLay := range snap.Shards {
		gotLay, ok := r.Layout(wantLay.P)
		if !ok {
			t.Fatalf("layout for p=%d missing", wantLay.P)
		}
		if len(gotLay.Spine) != len(wantLay.Spine) || len(gotLay.Units) != len(wantLay.Units) {
			t.Fatalf("layout p=%d shape mismatch", wantLay.P)
		}
		for i := range wantLay.Spine {
			if gotLay.Spine[i] != wantLay.Spine[i] {
				t.Fatalf("layout p=%d spine[%d] mismatch", wantLay.P, i)
			}
		}
		for i := range wantLay.Units {
			if len(gotLay.Units[i]) != len(wantLay.Units[i]) {
				t.Fatalf("layout p=%d part %d size mismatch", wantLay.P, i)
			}
			for j := range wantLay.Units[i] {
				if gotLay.Units[i][j] != wantLay.Units[i][j] {
					t.Fatalf("layout p=%d part %d unit %d mismatch", wantLay.P, i, j)
				}
			}
		}
	}
	if _, ok := r.Layout(7); ok {
		t.Fatal("unexpected layout for p=7")
	}
}

func TestSnapshotPartSourceMatchesPartIndex(t *testing.T) {
	doc := genDoc(t, 40)
	c, err := shard.Split(doc, 4)
	if err != nil {
		t.Fatal(err)
	}
	r := parseSnap(t, writeSnap(t, &Snapshot{Doc: doc}))
	vts := []index.ValueTest{index.ValueEq(""), index.Test("contains", "a")}
	for _, part := range c.Parts() {
		ref := index.Build(part.Doc)
		ords := make([]int, len(part.Units))
		for i, u := range part.Units {
			ords[i] = u.Ord
		}
		ps, err := r.PartSource(ords)
		if err != nil {
			t.Fatal(err)
		}
		for _, tag := range []string{"item", "parlist", "incategory", "name", "absent"} {
			if a, b := ref.CountTag(tag), ps.CountTag(tag); a != b {
				t.Fatalf("part %d CountTag(%s): %d vs %d", part.ID, tag, a, b)
			}
			for _, vt := range vts {
				a, b := ref.NodesMatching(tag, vt), ps.NodesMatching(tag, vt)
				if len(a) != len(b) {
					t.Fatalf("part %d NodesMatching(%s,%v): %d vs %d", part.ID, tag, vt, len(a), len(b))
				}
				for i := range a {
					if a[i].Ord != b[i].Ord {
						t.Fatalf("part %d NodesMatching(%s,%v)[%d]: ord mismatch", part.ID, tag, vt, i)
					}
				}
				pa := index.PredicateStatsOf(ref, "item", dewey.Descendant, tag, vt)
				pb := index.PredicateStatsOf(ps, "item", dewey.Descendant, tag, vt)
				if pa != pb {
					t.Fatalf("part %d PredicateStatsOf(%s,%v): %+v vs %+v", part.ID, tag, vt, pa, pb)
				}
			}
		}
		for _, anchor := range ref.Nodes("item") {
			a := ref.AppendCandidates(nil, anchor, dewey.Descendant, "text", index.ValueEq(""))
			b := ps.AppendCandidates(nil, r.Document().Nodes[anchor.Ord], dewey.Descendant, "text", index.ValueEq(""))
			if len(a) != len(b) {
				t.Fatalf("part %d AppendCandidates: %d vs %d", part.ID, len(a), len(b))
			}
		}
	}
}

func TestSnapshotSaveOpenMmap(t *testing.T) {
	doc := genDoc(t, 20)
	path := filepath.Join(t.TempDir(), "snap.wpxs")
	if err := SaveSnapshot(path, fullSnapshot(t, doc)); err != nil {
		t.Fatal(err)
	}
	r, err := OpenSnapshot(path)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if runtime.GOOS == "linux" && !r.Mapped() {
		t.Fatal("expected an mmapped reader on linux")
	}
	if r.SizeBytes()%1 != 0 || r.SizeBytes() == 0 {
		t.Fatal("empty snapshot file")
	}
	if r.Document().Size() != doc.Size() {
		t.Fatalf("size %d != %d", r.Document().Size(), doc.Size())
	}
	ix := index.Build(doc)
	for _, tag := range []string{"item", "name", "text"} {
		if ix.CountTag(tag) != r.CountTag(tag) {
			t.Fatalf("CountTag(%s) diverges", tag)
		}
	}
	if _, err := OpenSnapshot(filepath.Join(t.TempDir(), "missing.wpxs")); err == nil {
		t.Fatal("missing file should error")
	}
}

// TestSnapshotProbeAllocs pins the tentpole's zero-allocation property:
// steady-state descendant probes against the mapped postings allocate
// nothing.
func TestSnapshotProbeAllocs(t *testing.T) {
	doc := genDoc(t, 40)
	r := parseSnap(t, writeSnap(t, &Snapshot{Doc: doc}))
	items := r.Nodes("item")
	if len(items) == 0 {
		t.Fatal("no items")
	}
	anchor := items[0]
	var val string
	for _, n := range r.Nodes("name") {
		if n.Value != "" {
			val = n.Value
			break
		}
	}
	vts := []index.ValueTest{
		index.ValueEq(""),
		index.ValueEq(val),
		index.Test("contains", "a"),
		index.Test(">", "10"),
	}
	scratch := make([]*xmltree.Node, 0, len(doc.Nodes))
	probe := func() {
		for _, vt := range vts {
			scratch = r.AppendCandidates(scratch[:0], anchor, dewey.Descendant, "name", vt)
			scratch = r.AppendCandidates(scratch[:0], anchor, dewey.Child, "name", vt)
		}
		_ = r.CountTag("item")
	}
	probe() // warm scratch growth
	if allocs := testing.AllocsPerRun(200, probe); allocs != 0 {
		t.Fatalf("snapshot probe path allocates %.1f per run, want 0", allocs)
	}
}

func TestSnapshotCorruptionRejected(t *testing.T) {
	doc := genDoc(t, 10)
	raw := writeSnap(t, fullSnapshot(t, doc))
	if _, err := ParseSnapshot(raw); err != nil {
		t.Fatalf("pristine snapshot rejected: %v", err)
	}

	mut := func(off int, b byte) []byte {
		m := append([]byte(nil), raw...)
		m[off] ^= b
		return m
	}
	cases := map[string][]byte{
		"empty":            {},
		"short header":     raw[:headerSize-1],
		"bad magic":        mut(0, 0xFF),
		"bad version":      mut(4, 0xFF),
		"bad page size":    mut(12, 0xFF),
		"bad file size":    mut(16, 0xFF),
		"bad crc":          mut(24, 0xFF),
		"bad sec count":    mut(28, 0xFF),
		"table flip":       mut(headerSize+8, 0x01),
		"body flip":        mut(len(raw)/2, 0x01),
		"tail flip":        mut(len(raw)-1, 0x01),
		"truncated":        raw[:len(raw)/2],
		"truncated 1 byte": raw[:len(raw)-1],
		"extended":         append(append([]byte(nil), raw...), 0),
	}
	for name, data := range cases {
		if _, err := ParseSnapshot(data); err == nil {
			t.Errorf("%s: corruption accepted", name)
		}
	}
}

func TestSnapshotRejectsUnrenumberedDoc(t *testing.T) {
	doc := genDoc(t, 5)
	doc.Nodes[2].Ord = 99
	var buf bytes.Buffer
	if err := WriteSnapshot(&buf, &Snapshot{Doc: doc}); err == nil {
		t.Fatal("unrenumbered document accepted")
	}
}

func TestSnapshotEmptyAndForest(t *testing.T) {
	empty := xmltree.NewDocument()
	r := parseSnap(t, writeSnap(t, &Snapshot{Doc: empty}))
	if r.Document().Size() != 0 || len(r.Nodes("x")) != 0 || r.CountTag("x") != 0 {
		t.Fatal("empty document snapshot broken")
	}

	forest, err := xmltree.ParseString(`<a><b>1</b></a><a><c>2</c></a>`)
	if err != nil {
		t.Fatal(err)
	}
	r = parseSnap(t, writeSnap(t, &Snapshot{Doc: forest}))
	if len(r.Document().Roots) != 2 {
		t.Fatalf("roots = %d", len(r.Document().Roots))
	}
}

// TestOpenSnapshotRejectsV1 checks a file in the retired varint format
// ("WPX1" magic) is refused at open with an error naming the offset of
// the bad magic, whether or not it is as long as a WPXS header.
func TestOpenSnapshotRejectsV1(t *testing.T) {
	dir := t.TempDir()
	for _, size := range []int{8, 200} {
		v1 := append([]byte("WPX1"), make([]byte, size-4)...)
		path := filepath.Join(dir, fmt.Sprintf("v1-%d.wpx", size))
		if err := os.WriteFile(path, v1, 0o644); err != nil {
			t.Fatal(err)
		}
		_, err := OpenSnapshot(path)
		if err == nil {
			t.Fatalf("%d-byte WPX1 file accepted", size)
		}
		if !strings.Contains(err.Error(), "magic") || !strings.Contains(err.Error(), "offset 0") {
			t.Fatalf("%d-byte WPX1 file: error %q does not name the bad magic at offset 0", size, err)
		}
	}
}

// TestValuePostings checks the persisted (tag, value) postings: an
// equality test is served from them, an empty value means any, an
// absent value matches nothing, and a repeated lookup returns the
// cached list.
func TestValuePostings(t *testing.T) {
	doc, err := xmltree.ParseString(`<r><a>x</a><a>y</a><a>x</a><b>x</b></r>`)
	if err != nil {
		t.Fatal(err)
	}
	r := parseSnap(t, writeSnap(t, &Snapshot{Doc: doc}))
	for _, c := range []struct {
		tag, value string
		want       int
	}{
		{"a", "x", 2}, {"a", "y", 1}, {"a", "z", 0}, {"a", "", 3}, {"b", "x", 1}, {"c", "x", 0},
	} {
		if got := len(r.NodesMatching(c.tag, index.ValueEq(c.value))); got != c.want {
			t.Fatalf("NodesMatching(%s=%q) = %d, want %d", c.tag, c.value, got, c.want)
		}
	}
	root := r.Document().Roots[0]
	if got := r.AppendCandidates(nil, root, dewey.Child, "a", index.ValueEq("x")); len(got) != 2 || got[0].Ord != 1 || got[1].Ord != 3 {
		t.Fatalf("child a=x of r = %v", got)
	}
	p1 := r.NodesMatching("a", index.ValueEq("x"))
	p2 := r.NodesMatching("a", index.ValueEq("x"))
	if &p1[0] != &p2[0] {
		t.Fatal("value postings not cached")
	}
}

// reseal recomputes the body checksum of a snapshot image, so a test can
// corrupt a section's contents past the checksum and reach the
// structural validation behind it.
func reseal(raw []byte) {
	binary.LittleEndian.PutUint32(raw[24:], crc32.Checksum(raw[crcFrom:], castagnoli))
}

// sectionOf returns the table entry of the single section of a kind.
func sectionOf(t *testing.T, raw []byte, kind uint32) section {
	t.Helper()
	h, err := parseHeader(raw)
	if err != nil {
		t.Fatal(err)
	}
	secs, err := parseSections(raw, h)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range secs {
		if s.kind == kind {
			return s
		}
	}
	t.Fatalf("no %s section", sectionName(kind))
	return section{}
}

// TestCorruptionErrorsCarryOffsets pins the debuggability contract: a
// corrupt header field, and a section whose contents break a structural
// invariant even under a valid checksum, are rejected with an error
// naming the file offset where the fault was found.
func TestCorruptionErrorsCarryOffsets(t *testing.T) {
	raw := writeSnap(t, &Snapshot{Doc: genDoc(t, 10)})
	if _, err := ParseSnapshot(raw); err != nil {
		t.Fatalf("pristine snapshot rejected: %v", err)
	}
	flip := func(off int) func([]byte) []byte {
		return func(m []byte) []byte { m[off] ^= 0xFF; return m }
	}
	// putWord overwrites 32-bit word i of a section and reseals, so only
	// the structural checks can catch it.
	putWord := func(kind uint32, i int, v uint32) (func([]byte) []byte, uint64) {
		s := sectionOf(t, raw, kind)
		return func(m []byte) []byte {
			binary.LittleEndian.PutUint32(m[int(s.off)+4*i:], v)
			reseal(m)
			return m
		}, s.off
	}
	swapWords := func(kind uint32, i int) (func([]byte) []byte, uint64) {
		s := sectionOf(t, raw, kind)
		return func(m []byte) []byte {
			a, b := int(s.off)+4*i, int(s.off)+4*(i+1)
			wa, wb := binary.LittleEndian.Uint32(m[a:]), binary.LittleEndian.Uint32(m[b:])
			binary.LittleEndian.PutUint32(m[a:], wb)
			binary.LittleEndian.PutUint32(m[b:], wa)
			reseal(m)
			return m
		}, s.off
	}
	type tc struct {
		name   string
		mutate func([]byte) []byte
		at     uint64
	}
	cases := []tc{
		{"magic", flip(0), 0},
		{"version", flip(4), 4},
		{"page size", flip(12), 12},
		{"file size", flip(16), 16},
		{"checksum", flip(24), 24},
		{"section count", flip(31), 28},
		{"body flip", flip(len(raw) / 2), 24},
		{"truncated", func(m []byte) []byte { return m[:len(m)-1] }, 16},
		{"extended", func(m []byte) []byte { return append(m, 0) }, 16},
	}
	add := func(name string, mutate func([]byte) []byte, at uint64) {
		cases = append(cases, tc{name, mutate, at})
	}
	mut, at := putWord(secTagOffsets, 0, 1)
	add("tag offsets", mut, at)
	mut, at = putWord(secNodeTags, 3, 1<<20)
	add("node tags", mut, at)
	mut, at = putWord(secNodeParents, 1, 5)
	add("node parents", mut, at)
	mut, at = putWord(secSubtree, 2, 0)
	add("subtree sizes", mut, at)
	mut, at = putWord(secValueOffsets, 0, 1)
	add("value offsets", mut, at)
	mut, at = putWord(secDeweyOffsets, 0, 1)
	add("dewey offsets", mut, at)
	mut, at = swapWords(secTagPostOrds, 0)
	add("tag postings", mut, at)
	mut, at = putWord(secValPostTags, 0, 1<<20)
	add("value postings tags", mut, at)
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := ParseSnapshot(c.mutate(append([]byte(nil), raw...)))
			if err == nil {
				t.Fatal("corruption accepted")
			}
			if want := regexp.MustCompile(fmt.Sprintf(`\boffset %d\b`, c.at)); !want.MatchString(err.Error()) {
				t.Fatalf("error %q does not name offset %d", err, c.at)
			}
		})
	}
}
