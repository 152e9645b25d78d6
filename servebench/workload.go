package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"

	"repro"
	"repro/internal/bench"
	"repro/internal/xmark"
	"repro/internal/xmltree"
)

// corpusItems sizes the generated XMark document: about 8 MB and 365k
// nodes, the BENCH_core scale. A fixed item count, rather than a byte
// target, keeps the document's size the same from seed to seed.
const corpusItems = 9600

// cacheSize is whirlpoold's default plan and engine LRU capacity; the
// replay mirrors it and churn's shape space is sized against it.
const cacheSize = 256

// snapshotShards are the shard layouts persisted into the snapshot.
var snapshotShards = []int{1, 8}

// boots is how many times a run times the daemon's setup; setup_s is
// their median and the last boot serves the measured window.
const boots = 3

// workload describes how the daemon boots and which stream it serves.
type workload struct {
	name string
	// snapshot boots the daemon from doc.wpxs; otherwise from doc.xml.
	snapshot bool
	// shards is the daemon's -shards flag (1 means unsharded).
	shards int
	// churn selects the churn stream; otherwise the hot-items stream.
	churn bool
}

var workloads = map[string]workload{
	"hot-items":        {name: "hot-items", snapshot: true, shards: 1},
	"churn":            {name: "churn", shards: 1, churn: true},
	"sharded-snapshot": {name: "sharded-snapshot", snapshot: true, shards: 8},
}

// request is one distinct /query body the benchmark sends.
type request struct {
	Query string `json:"query"`
	K     int    `json:"k"`
	Exact bool   `json:"exact"`
}

// options returns the evaluation options whirlpoold derives from the
// request: Whirlpool-S with all relaxations, or none when exact.
func (r request) options() whirlpool.Options {
	opts := whirlpool.Approximate(r.K)
	if r.Exact {
		opts.Relax = whirlpool.RelaxNone
	}
	return opts
}

// stream is a workload's request sequence: reqs holds the distinct
// requests and order the indexes into reqs in the order they are sent
// (cycled when a run outlasts it).
type stream struct {
	reqs  []request
	order []int
}

// at returns the i-th request of the stream.
func (s *stream) at(i int64) int { return s.order[int(i%int64(len(s.order)))] }

// hotBase lists the hot-items queries: the paper's Q1–Q3 plus
// predicate-order variants of Q2 and Q3, which canonicalize to the
// same plan as the originals.
func hotBase() []string {
	return []string{
		bench.Q1.XPath,
		bench.Q2.XPath,
		bench.Q3.XPath,
		"//item[./mailbox/mail/text and ./description/parlist]",
		"//item[./incategory and ./name and ./mailbox/mail/text[./keyword and ./bold]]",
	}
}

// hotBlocks is how many shuffled rounds of the distinct hot requests the
// stream holds before it cycles.
const hotBlocks = 64

// hotStream builds the hot-items stream: every distinct request once per
// block, each block in a seeded random order, so the request mix of any
// window is the same to within one block.
func hotStream(seed int64) *stream {
	s := &stream{}
	for _, q := range hotBase() {
		for _, exact := range []bool{true, false} {
			for _, k := range []int{5, 15, 50} {
				s.reqs = append(s.reqs, request{Query: q, K: k, Exact: exact})
			}
		}
	}
	r := rand.New(rand.NewSource(seed))
	for b := 0; b < hotBlocks; b++ {
		s.order = append(s.order, r.Perm(len(s.reqs))...)
	}
	return s
}

// Vocabularies of internal/xmark's generator, from which churn draws
// predicate values. TestChurnVocabulary checks them against a generated
// document.
var (
	xmarkWords = []string{
		"gold", "silver", "amber", "vintage", "rare", "antique", "brass",
		"carved", "painted", "woven", "glass", "ivory", "oak", "walnut",
		"ceramic", "bronze", "linen", "silk", "jade", "pearl", "crystal",
		"ornate", "rustic", "gilded", "enamel", "lacquer", "marble", "onyx",
	}
	xmarkYesNo = []string{"Yes", "No"}
)

// churnTerm renders one value predicate of a churn query; items is the
// document's item count, which bounds the generated id spaces.
type churnTerm func(r *rand.Rand, items int) string

func word(r *rand.Rand) string { return xmarkWords[r.Intn(len(xmarkWords))] }

// churnSections maps each non-item XMark section's element to the
// predicates churn combines over it.
var churnSections = []struct {
	root  string
	terms []churnTerm
}{
	{"category", []churnTerm{
		func(r *rand.Rand, _ int) string { return fmt.Sprintf("./name contains '%s'", word(r)) },
		func(r *rand.Rand, _ int) string { return fmt.Sprintf("./description/text contains '%s'", word(r)) },
		func(r *rand.Rand, _ int) string { return fmt.Sprintf("./description/text/bold = '%s'", word(r)) },
		func(r *rand.Rand, _ int) string { return fmt.Sprintf("./description/text/keyword = '%s'", word(r)) },
		func(r *rand.Rand, items int) string { return fmt.Sprintf("./@id = 'c%d'", r.Intn(items/10+1)) },
	}},
	{"person", []churnTerm{
		func(r *rand.Rand, _ int) string { return fmt.Sprintf("./name contains '%s'", word(r)) },
		func(r *rand.Rand, _ int) string { return fmt.Sprintf("./emailaddress contains '%s'", word(r)) },
		func(r *rand.Rand, _ int) string { return fmt.Sprintf("./profile/education = '%s'", word(r)) },
		func(r *rand.Rand, _ int) string {
			return fmt.Sprintf("./profile/business = '%s'", xmarkYesNo[r.Intn(2)])
		},
		func(r *rand.Rand, items int) string {
			return fmt.Sprintf("./profile/interest/@category = 'c%d'", r.Intn(items/10+1))
		},
	}},
	{"open_auction", []churnTerm{
		func(r *rand.Rand, _ int) string { return fmt.Sprintf("./current > %d", 1+r.Intn(500)) },
		func(r *rand.Rand, _ int) string { return fmt.Sprintf("./quantity = '%d'", 1+r.Intn(3)) },
		func(r *rand.Rand, _ int) string { return fmt.Sprintf("./bidder/increase < %d", 1+r.Intn(50)) },
		func(r *rand.Rand, items int) string {
			return fmt.Sprintf("./bidder/personref/@person = 'p%d'", r.Intn(items/2+1))
		},
		func(r *rand.Rand, items int) string { return fmt.Sprintf("./itemref/@item = 'item%d'", r.Intn(items)) },
	}},
	{"closed_auction", []churnTerm{
		func(r *rand.Rand, _ int) string { return fmt.Sprintf("./price > %d", 1+r.Intn(1000)) },
		func(r *rand.Rand, _ int) string { return fmt.Sprintf("./annotation/text contains '%s'", word(r)) },
		func(r *rand.Rand, _ int) string { return fmt.Sprintf("./annotation/text/keyword = '%s'", word(r)) },
		func(r *rand.Rand, items int) string { return fmt.Sprintf("./buyer/@person = 'p%d'", r.Intn(items/2+1)) },
		func(r *rand.Rand, items int) string {
			return fmt.Sprintf("./seller/@person = 'p%d'", r.Intn(items/2+1))
		},
	}},
}

const (
	// churnShapes is the number of distinct query shapes churn draws
	// from: four times the daemon's plan-cache capacity.
	churnShapes = 4 * cacheSize
	// churnLength is the stream length before it cycles: more requests
	// than a run sends.
	churnLength = 1 << 15
	// churnZipfS and churnZipfV shape the draw, P(rank r) ∝ (V+r)^-S:
	// a head of shapes recurs (about 2/3 plan-cache hits) while the tail
	// keeps evicting, and no single shape carries more than about 3% of
	// the requests, so the mix, and with it the figures, varies little
	// from seed to seed.
	churnZipfS = 1.1
	churnZipfV = 10
)

// churnStream builds the churn stream: a pool of value-predicate
// patterns over the non-item sections, each with one to three
// predicates in random order, exact or relaxed, drawn Zipf-distributed
// with k uniform in [1, 20].
func churnStream(seed int64, items int) *stream {
	r := rand.New(rand.NewSource(seed))
	// A shape's section, mode and predicate count follow from its
	// popularity rank, so every run of ranks, the popular head included,
	// mixes them in the same proportions whatever the seed; the seed
	// picks the predicates, their order and their values.
	shapes := make([]request, churnShapes)
	for i := range shapes {
		sec := churnSections[i%len(churnSections)]
		n := 1 + i/len(churnSections)%3
		terms := make([]string, 0, n)
		for _, t := range r.Perm(len(sec.terms))[:n] {
			terms = append(terms, sec.terms[t](r, items))
		}
		shapes[i] = request{
			Query: fmt.Sprintf("//%s[%s]", sec.root, strings.Join(terms, " and ")),
			Exact: i/(3*len(churnSections))%2 == 0,
		}
	}
	z := rand.NewZipf(r, churnZipfS, churnZipfV, churnShapes-1)
	s := &stream{}
	index := make(map[request]int)
	for i := 0; i < churnLength; i++ {
		req := shapes[z.Uint64()]
		req.K = 1 + r.Intn(20)
		id, ok := index[req]
		if !ok {
			id = len(s.reqs)
			index[req] = id
			s.reqs = append(s.reqs, req)
		}
		s.order = append(s.order, id)
	}
	return s
}

// corpus is the generated document and the files the daemon boots from.
type corpus struct {
	doc      *xmltree.Document
	items    int
	xmlPath  string
	xmlBytes int64
	snapPath string // empty unless the workload boots from a snapshot
}

// buildCorpus writes the seeded XMark document to dir/doc.xml, parses it
// back, and, when snapshot is set, saves dir/doc.wpxs with persisted
// shard layouts.
func buildCorpus(dir string, seed int64, snapshot bool) (*corpus, error) {
	c := &corpus{xmlPath: filepath.Join(dir, "doc.xml")}
	f, err := os.Create(c.xmlPath)
	if err != nil {
		return nil, err
	}
	w := bufio.NewWriter(f)
	c.items = corpusItems
	err = xmark.Write(w, xmark.Options{Seed: seed, Items: corpusItems})
	if err == nil {
		err = w.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, fmt.Errorf("writing corpus: %w", err)
	}
	f, err = os.Open(c.xmlPath)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return nil, err
	}
	c.xmlBytes = st.Size()
	if c.doc, err = xmltree.Parse(bufio.NewReader(f)); err != nil {
		return nil, fmt.Errorf("parsing corpus: %w", err)
	}
	if snapshot {
		c.snapPath = filepath.Join(dir, "doc.wpxs")
		db := whirlpool.FromDocument(c.doc)
		if err := db.SaveSnapshot(c.snapPath, whirlpool.SnapshotOptions{Shards: snapshotShards}); err != nil {
			return nil, fmt.Errorf("saving snapshot: %w", err)
		}
	}
	return c, nil
}

// bodies pre-encodes every distinct request as a /query body.
func (s *stream) bodies() ([][]byte, error) {
	out := make([][]byte, len(s.reqs))
	for i, r := range s.reqs {
		b, err := json.Marshal(r)
		if err != nil {
			return nil, err
		}
		out[i] = b
	}
	return out, nil
}
