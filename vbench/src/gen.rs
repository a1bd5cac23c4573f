//! Seeded, stationary input generators: the corpora, the query pools and
//! the op streams of the three workloads.
//!
//! Every stream is a pure function of its seed. The edit streams keep the
//! document stationary: they are dealt in cycles, and at the end of every
//! cycle the book count, the author count and the node count equal those
//! at its start, so a run measures the same document however long it is.

use vh_query::{Edit, QueryRequest};
use vh_workload::{generate_books, generate_xmark, BooksConfig, XmarkConfig};
use vh_xml::{serialize, Document, SerializeOptions};

use crate::rng::Rng;

/// URI of the books corpus (the paper's Figure 2, scaled).
pub const BOOKS_URI: &str = "books.xml";
/// URI of the XMark-style auction corpus.
pub const AUCTION_URI: &str = "auction.xml";

/// Sam's transformation (Figure 1): titles own their authors.
pub const SAM: &str = "title { author { name } }";
/// Case-2 inversion: authors hang below their own names.
pub const INVERT: &str = "title { name { author } }";
/// Books regrouped under publisher locations.
pub const REGROUP: &str = "location { title author { name } }";
/// Double inversion: names own their authors, which own the titles.
pub const DEEP_INVERT: &str = "name { author { title } }";
/// Persons regrouped under their cities.
pub const PERSON_CITY: &str = "city { person { person.name emailaddress } }";
/// European items lifted out of the region hierarchy.
pub const ITEMS_FLAT: &str = "europe.item { europe.item.name europe.item.description }";

/// Surnames the edit streams draw new authors from (tags and values the
/// corpus already uses, so no edit mints a new DataGuide type).
const SURNAMES: [&str; 6] = ["Codd", "Gray", "Date", "Chen", "Widom", "Hull"];
/// Publisher locations, as in the corpus.
const LOCATIONS: [&str; 4] = ["Boston", "Munich", "Oslo", "Cairo"];

/// Generates candidate corpora from seeds dealt by `seed` and keeps the
/// first whose `stats` all lie within `tol` of `want`: the content varies
/// with the seed, the size does not, so the seed moves no timing.
fn stationary(
    seed: u64,
    want: &[f64],
    tol: &[f64],
    generate: impl Fn(u64) -> Document,
    stats: impl Fn(&Document) -> Vec<f64>,
) -> String {
    let mut seeds = Rng::new(seed);
    let mut best: Option<(f64, Document)> = None;
    for _ in 0..1_000 {
        let doc = generate(seeds.next_u64());
        let miss = stats(&doc)
            .iter()
            .zip(want.iter().zip(tol))
            .map(|(s, (w, t))| ((s - w).abs() - t).max(0.0))
            .sum::<f64>();
        if best.as_ref().is_none_or(|(m, _)| miss < *m) {
            best = Some((miss, doc));
        }
        if miss == 0.0 {
            break;
        }
    }
    best.map_or(String::new(), |(_, doc)| {
        serialize(&doc, SerializeOptions::compact())
    })
}

/// Elements named `name`.
fn count(doc: &Document, name: &str) -> f64 {
    doc.preorder()
        .filter(|&n| doc.name(n) == Some(name))
        .count() as f64
}

/// The books corpus as XML text: two authors per book and one `RARE`
/// title in ten on average, as the generator deals them, to within half a
/// percent of the book count.
pub fn books_xml(books: usize, seed: u64) -> String {
    let n = books as f64;
    let tol = (n / 200.0).max(1.0);
    stationary(
        seed,
        &[2.0 * n, 0.1 * n],
        &[tol, tol],
        |s| {
            generate_books(
                BOOKS_URI,
                &BooksConfig {
                    books,
                    seed: s,
                    ..BooksConfig::default()
                },
            )
        },
        |doc| {
            let rare = doc
                .preorder()
                .filter(|&t| {
                    doc.name(t) == Some("title") && doc.string_value(t).starts_with("RARE")
                })
                .count();
            vec![count(doc, "author"), rare as f64]
        },
    )
}

/// The auction corpus as XML text, with persons that have a city and
/// bidders at their expected counts to within one percent.
pub fn auction_xml(scale: f64, seed: u64) -> String {
    let persons = (2500.0 * scale).floor();
    let auctions = (1200.0 * scale).floor();
    let (cities, bidders) = (0.6 * persons, 1.5 * auctions);
    stationary(
        seed,
        &[cities, bidders],
        &[(cities / 100.0).max(1.0), (bidders / 100.0).max(1.0)],
        |s| generate_xmark(AUCTION_URI, &XmarkConfig { scale, seed: s }),
        |doc| vec![count(doc, "city"), count(doc, "bidder")],
    )
}

/// Authors per book, in document order — the only shape the edit
/// generators need to know.
pub fn author_counts(doc: &Document) -> Vec<usize> {
    let Some(root) = doc.root() else {
        return Vec::new();
    };
    doc.children(root)
        .iter()
        .map(|&b| {
            doc.children(b)
                .iter()
                .filter(|&&c| doc.name(c) == Some("author"))
                .count()
        })
        .collect()
}

// ------------------------------------------------------------- queries ---

/// The three query classes, named as the wire verbs name them: a path
/// over a physical document, a path over a virtual view, a FLWR query.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Class {
    /// XPath over a physical document.
    Point,
    /// XPath over a virtual view.
    Twig,
    /// FLWR query.
    Flwr,
}

impl Class {
    /// Every class, in reporting order.
    pub const ALL: [Class; 3] = [Class::Point, Class::Twig, Class::Flwr];

    /// The metric-name suffix of the class.
    pub fn label(self) -> &'static str {
        match self {
            Class::Point => "point",
            Class::Twig => "twig",
            Class::Flwr => "flwr",
        }
    }
}

/// One entry of a query pool.
#[derive(Clone, Debug)]
pub struct Query {
    /// Query class.
    pub class: Class,
    /// Document the query reads.
    pub uri: &'static str,
    /// View spec for [`Class::Twig`].
    pub spec: Option<&'static str>,
    /// XPath, or the FLWR text.
    pub text: String,
    /// Relative draw weight.
    pub weight: u32,
}

impl Query {
    fn point(uri: &'static str, path: &str, weight: u32) -> Query {
        Query {
            class: Class::Point,
            uri,
            spec: None,
            text: path.to_owned(),
            weight,
        }
    }

    fn twig(uri: &'static str, spec: &'static str, path: &str, weight: u32) -> Query {
        Query {
            class: Class::Twig,
            uri,
            spec: Some(spec),
            text: path.to_owned(),
            weight,
        }
    }

    /// The engine request for this query.
    pub fn request(&self) -> QueryRequest {
        match (self.class, self.spec) {
            (Class::Twig, Some(spec)) => {
                QueryRequest::virtual_path(self.uri, spec, self.text.as_str())
            }
            (Class::Flwr, _) => QueryRequest::flwr(self.text.as_str()),
            _ => QueryRequest::path(self.uri, self.text.as_str()),
        }
    }
}

/// Rhonda's query (Figure 6) over Sam's view of the books.
pub fn rhonda_flwr() -> String {
    format!(
        r#"for $t in virtualDoc("{BOOKS_URI}", "{SAM}")//title
           return <result><title>{{$t/text()}}</title><count>{{count($t/author)}}</count></result>"#
    )
}

/// `read-views`: point paths over both physical documents (35 by
/// weight), virtual paths through six views (50) and Rhonda's FLWR (15).
///
/// The weights are listed in the order of the queries' latency at this
/// commit and place the mix's p50 in the middle of the `regroup` query's
/// block (ranks 44–56) and its p90 inside the two costliest queries'
/// block (ranks 78–100). A percentile that fell on the edge between two
/// queries of different cost would jump between them from run to run.
pub fn read_views_pool() -> Vec<Query> {
    vec![
        Query::twig(AUCTION_URI, ITEMS_FLAT, "//item/name", 3),
        Query::twig(AUCTION_URI, PERSON_CITY, "//city/person/name", 3),
        Query::point(AUCTION_URI, "//open_auction/bidder/increase", 7),
        Query::point(AUCTION_URI, "//item/name", 7),
        Query::point(AUCTION_URI, "//person/name", 6),
        Query::point(BOOKS_URI, "//title", 6),
        Query::point(BOOKS_URI, "//title[contains(text(), 'RARE')]", 5),
        Query::point(BOOKS_URI, "//book/author/name", 4),
        Query::twig(
            BOOKS_URI,
            SAM,
            "//title[contains(text(), 'RARE')]/author",
            3,
        ),
        Query::twig(BOOKS_URI, REGROUP, "//location/title", 12),
        Query {
            class: Class::Flwr,
            uri: BOOKS_URI,
            spec: Some(SAM),
            text: rhonda_flwr(),
            weight: 15,
        },
        Query::twig(BOOKS_URI, SAM, "//title", 4),
        Query::twig(BOOKS_URI, INVERT, "//title/name/author", 3),
        Query::twig(BOOKS_URI, SAM, "//title/author/name", 14),
        Query::twig(BOOKS_URI, DEEP_INVERT, "//name/author/title", 8),
    ]
}

/// `edit-churn`: virtual paths through the four book views whose counts
/// the stationary edit stream leaves unchanged (one per book or one per
/// author), so every answer can be checked against the set-up oracle.
pub fn churn_pool() -> Vec<Query> {
    vec![
        Query::twig(BOOKS_URI, SAM, "//title", 1),
        Query::twig(BOOKS_URI, SAM, "//title/author/name", 1),
        Query::twig(BOOKS_URI, INVERT, "//title/name/author", 1),
        Query::twig(BOOKS_URI, REGROUP, "//location/title", 1),
        Query::twig(BOOKS_URI, DEEP_INVERT, "//name/author/title", 1),
    ]
}

/// `serve-mix`: point and twig paths of the query server's traffic.
pub fn serve_pool() -> Vec<Query> {
    vec![
        Query::point(BOOKS_URI, "//title", 1),
        Query::point(BOOKS_URI, "//author/name", 1),
        Query::point(BOOKS_URI, "//book", 1),
        Query::twig(BOOKS_URI, SAM, "//title/author/name", 1),
        Query::twig(BOOKS_URI, INVERT, "//title/name/author", 1),
    ]
}

/// Every distinct `(uri, spec)` view a pool reads.
pub fn views(pool: &[Query]) -> Vec<(&'static str, &'static str)> {
    let mut out: Vec<(&'static str, &'static str)> = Vec::new();
    for q in pool {
        if let Some(spec) = q.spec {
            if !out.contains(&(q.uri, spec)) {
                out.push((q.uri, spec));
            }
        }
    }
    out
}

/// Indexes into a pool, dealt from shuffled decks that hold each query
/// as many times as its weight, so the mix is exact over every deck and
/// the seed changes only the order.
#[derive(Clone, Debug)]
pub struct QueryStream {
    rng: Rng,
    deck: Vec<usize>,
    next: usize,
}

impl QueryStream {
    /// A stream over `pool` fixed by `seed`.
    pub fn new(pool: &[Query], seed: u64) -> QueryStream {
        let deck: Vec<usize> = pool
            .iter()
            .enumerate()
            .flat_map(|(i, q)| std::iter::repeat_n(i, q.weight as usize))
            .collect();
        QueryStream {
            next: deck.len(),
            rng: Rng::new(seed),
            deck,
        }
    }

    /// The next pool index.
    pub fn next_index(&mut self) -> usize {
        if self.next == self.deck.len() {
            self.rng.shuffle(&mut self.deck);
            self.next = 0;
        }
        self.next += 1;
        self.deck[self.next - 1]
    }
}

// --------------------------------------------------------------- edits ---

/// One operation of an edit-bearing stream.
#[derive(Clone, Debug, PartialEq)]
pub enum Op {
    /// Run the pool query at this index.
    Query(usize),
    /// Apply this edit.
    Edit(Edit),
}

/// The four edit kinds, named as the per-layer metrics name them.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EditKind {
    /// [`Edit::InsertSubtree`].
    Insert,
    /// [`Edit::DeleteSubtree`].
    Delete,
    /// [`Edit::SetValue`].
    Set,
    /// [`Edit::MoveSubtree`].
    Move,
}

impl EditKind {
    /// Every kind, in reporting order.
    pub const ALL: [EditKind; 4] = [
        EditKind::Insert,
        EditKind::Delete,
        EditKind::Set,
        EditKind::Move,
    ];

    /// The kind of an edit.
    pub fn of(edit: &Edit) -> EditKind {
        match edit {
            Edit::InsertSubtree { .. } => EditKind::Insert,
            Edit::DeleteSubtree { .. } => EditKind::Delete,
            Edit::SetValue { .. } => EditKind::Set,
            Edit::MoveSubtree { .. } => EditKind::Move,
        }
    }

    /// The metric-name suffix of the kind.
    pub fn label(self) -> &'static str {
        match self {
            EditKind::Insert => "insert",
            EditKind::Delete => "delete",
            EditKind::Set => "set",
            EditKind::Move => "move",
        }
    }
}

/// Dotted child-index path of book `k` (0-based) under the root.
fn book_path(k: usize) -> String {
    format!("1.{}", k + 1)
}

/// A book fragment with `authors` authors, all in the corpus vocabulary.
fn book_xml(tag: &str, title: &str, authors: usize, rng: &mut Rng) -> String {
    let mut xml = format!("<book id=\"{tag}\"><title>{title}</title>");
    for a in 0..authors {
        let surname = SURNAMES[rng.below(SURNAMES.len())];
        xml.push_str(&format!("<author><name>{surname} {a}</name></author>"));
    }
    let location = LOCATIONS[rng.below(LOCATIONS.len())];
    xml.push_str(&format!(
        "<publisher><location>{location}</location></publisher></book>"
    ));
    xml
}

/// The `edit-churn` stream: cycles of eight edits and two queries.
///
/// A cycle makes three insert/delete pairs (a book inserted at a
/// front-skewed position, then another book with the same author count
/// deleted), rewrites one title, and moves either a book to a
/// front-skewed position or an author between books (alternate cycles).
/// Both queries run where book, author and node counts equal the
/// start's. Inserts and deletes are three quarters of the edits, so the
/// edit latency's p50 and p90 fall inside their clusters rather than on
/// the edge between two edit kinds, where a small shift would move them
/// far.
#[derive(Clone, Debug)]
pub struct ChurnStream {
    rng: Rng,
    queries: QueryStream,
    /// Authors per book, in document order — the stream's model of the
    /// document its edits will meet.
    authors: Vec<usize>,
    dealt: u64,
    cycles: u64,
}

impl ChurnStream {
    /// A stream over a document whose books have `authors` authors each.
    pub fn new(authors: Vec<usize>, pool: &[Query], seed: u64) -> ChurnStream {
        assert!(authors.len() >= 2, "the churn stream needs two books");
        ChurnStream {
            rng: Rng::new(seed),
            queries: QueryStream::new(pool, seed ^ 0x51A7),
            authors,
            dealt: 0,
            cycles: 0,
        }
    }

    /// Front-gap skew: position 0 three times in four, else uniform.
    fn front_pos(&mut self, len: usize) -> usize {
        if self.rng.below(4) == 0 {
            self.rng.below(len + 1)
        } else {
            0
        }
    }

    /// The next ten ops. The model is advanced as if every edit applied.
    pub fn next_cycle(&mut self) -> Vec<Op> {
        let mut ops = Vec::with_capacity(10);
        self.insert_delete(&mut ops);
        // Rewrite a title; one in ten carries the selective marker.
        let k = self.rng.below(self.authors.len());
        let rare = if self.rng.below(10) == 0 { "RARE " } else { "" };
        ops.push(Op::Edit(Edit::SetValue {
            uri: BOOKS_URI.to_owned(),
            target: format!("{}.1", book_path(k)),
            value: format!("{rare}Retitled {}", self.rng.below(1_000_000)),
        }));
        self.insert_delete(&mut ops);
        ops.push(Op::Query(self.queries.next_index()));
        self.insert_delete(&mut ops);
        self.cycles += 1;
        ops.push(Op::Edit(if self.cycles % 2 == 1 {
            self.move_book()
        } else {
            self.move_author()
        }));
        ops.push(Op::Query(self.queries.next_index()));
        ops
    }

    /// Inserts a book shaped like a random victim, then deletes the victim.
    fn insert_delete(&mut self, ops: &mut Vec<Op>) {
        let n = self.authors.len();
        let victim = self.rng.below(n);
        let count = self.authors[victim];
        let pos = self.front_pos(n);
        self.dealt += 1;
        let title = format!("Churn {}", self.dealt);
        let xml = book_xml(&format!("c{}", self.dealt), &title, count, &mut self.rng);
        ops.push(Op::Edit(Edit::InsertSubtree {
            uri: BOOKS_URI.to_owned(),
            parent: "1".to_owned(),
            pos,
            xml,
        }));
        self.authors.insert(pos, count);
        let victim = if pos <= victim { victim + 1 } else { victim };
        ops.push(Op::Edit(Edit::DeleteSubtree {
            uri: BOOKS_URI.to_owned(),
            target: book_path(victim),
        }));
        self.authors.remove(victim);
    }

    /// Moves a book to a front-skewed position among the others.
    fn move_book(&mut self) -> Edit {
        let n = self.authors.len();
        let from = self.rng.below(n);
        let count = self.authors.remove(from);
        let to = self.front_pos(n - 1);
        self.authors.insert(to, count);
        Edit::MoveSubtree {
            uri: BOOKS_URI.to_owned(),
            target: book_path(from),
            parent: "1".to_owned(),
            pos: to,
        }
    }

    /// Moves the last author of a book with two or more authors to the
    /// front of another book's authors (right after its title).
    fn move_author(&mut self) -> Edit {
        let n = self.authors.len();
        let mut from = self.rng.below(n);
        while self.authors[from] < 2 {
            from = (from + 1) % n;
        }
        let to = (from + 1 + self.rng.below(n - 1)) % n;
        let target = format!("{}.{}", book_path(from), self.authors[from] + 1);
        self.authors[from] -= 1;
        self.authors[to] += 1;
        Edit::MoveSubtree {
            uri: BOOKS_URI.to_owned(),
            target,
            parent: book_path(to),
            pos: 1,
        }
    }
}

/// The `serve-mix` stream of one client: cycles of twenty ops — twelve
/// point and six twig queries, and one book insert at the front followed
/// later by one delete of the front book. Every inserted book has the
/// same shape, and a client deletes only after it inserted, so whatever
/// the interleaving of clients the deletes remove inserted books and the
/// document returns to its start when every client ends on a cycle.
#[derive(Clone, Debug)]
pub struct ServeStream {
    rng: Rng,
    points: QueryStream,
    twigs: QueryStream,
    point_idx: Vec<usize>,
    twig_idx: Vec<usize>,
    client: usize,
}

impl ServeStream {
    /// Client `client`'s stream over `pool`, fixed by `seed`.
    pub fn new(pool: &[Query], seed: u64, client: usize) -> ServeStream {
        let seed = seed ^ (client as u64).wrapping_mul(0x9E37_79B9);
        let of =
            |c: Class| -> Vec<usize> { (0..pool.len()).filter(|&i| pool[i].class == c).collect() };
        let (point_idx, twig_idx) = (of(Class::Point), of(Class::Twig));
        let sub = |idx: &[usize]| -> Vec<Query> { idx.iter().map(|&i| pool[i].clone()).collect() };
        ServeStream {
            rng: Rng::new(seed),
            points: QueryStream::new(&sub(&point_idx), seed ^ 1),
            twigs: QueryStream::new(&sub(&twig_idx), seed ^ 2),
            point_idx,
            twig_idx,
            client,
        }
    }

    /// The book every client inserts (one author, one location).
    pub fn inserted_book(client: usize) -> String {
        format!(
            "<book id=\"s{client}\"><title>Served {client}</title>\
             <author><name>Client {client}</name></author>\
             <publisher><location>Oslo</location></publisher></book>"
        )
    }

    /// The next twenty ops.
    pub fn next_cycle(&mut self) -> Vec<Op> {
        let mut ops: Vec<Op> = Vec::with_capacity(20);
        for _ in 0..12 {
            ops.push(Op::Query(self.point_idx[self.points.next_index()]));
        }
        for _ in 0..6 {
            ops.push(Op::Query(self.twig_idx[self.twigs.next_index()]));
        }
        self.rng.shuffle(&mut ops);
        let first = self.rng.below(19);
        let second = first + 1 + self.rng.below(19 - first);
        ops.insert(
            first,
            Op::Edit(Edit::InsertSubtree {
                uri: BOOKS_URI.to_owned(),
                parent: "1".to_owned(),
                pos: 0,
                xml: Self::inserted_book(self.client),
            }),
        );
        ops.insert(
            second,
            Op::Edit(Edit::DeleteSubtree {
                uri: BOOKS_URI.to_owned(),
                target: "1.1".to_owned(),
            }),
        );
        ops
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vh_query::Engine;

    fn engine_with(xml: &str) -> Engine {
        let mut e = Engine::new();
        e.register_xml(BOOKS_URI, xml).expect("corpus registers");
        e
    }

    /// (books, authors, nodes) of the books document.
    fn shape(e: &Engine) -> (usize, usize, usize) {
        let doc = e.document(BOOKS_URI).expect("registered").doc();
        let authors = author_counts(doc);
        (authors.len(), authors.iter().sum(), doc.preorder().count())
    }

    #[test]
    fn corpora_are_deterministic_per_seed() {
        assert_eq!(books_xml(20, 3), books_xml(20, 3));
        assert_ne!(books_xml(20, 3), books_xml(20, 4));
        assert_eq!(auction_xml(0.01, 3), auction_xml(0.01, 3));
    }

    #[test]
    fn corpora_keep_their_size_across_seeds() {
        for seed in 1..4 {
            let doc = vh_xml::parse(BOOKS_URI, &books_xml(400, seed)).expect("parses");
            assert!((count(&doc, "author") - 800.0).abs() <= 2.0);
            let doc = vh_xml::parse(AUCTION_URI, &auction_xml(0.04, seed)).expect("parses");
            assert!((count(&doc, "city") - 60.0).abs() <= 1.0);
            assert!((count(&doc, "bidder") - 72.0).abs() <= 1.0);
        }
    }

    #[test]
    fn query_streams_are_deterministic_per_seed() {
        let pool = read_views_pool();
        let deal = |seed| {
            let mut s = QueryStream::new(&pool, seed);
            (0..200).map(|_| s.next_index()).collect::<Vec<_>>()
        };
        assert_eq!(deal(5), deal(5));
        assert_ne!(deal(5), deal(6));
        // Two whole decks of 100: the mix is exact.
        let flwr = deal(5)
            .iter()
            .filter(|&&i| pool[i].class == Class::Flwr)
            .count();
        assert_eq!(flwr, 30);
    }

    #[test]
    fn churn_stream_is_deterministic_per_seed() {
        let xml = books_xml(30, 1);
        let authors = author_counts(engine_with(&xml).document(BOOKS_URI).unwrap().doc());
        let deal = |seed| {
            let mut s = ChurnStream::new(authors.clone(), &churn_pool(), seed);
            (0..20).flat_map(|_| s.next_cycle()).collect::<Vec<_>>()
        };
        assert_eq!(deal(8), deal(8));
        assert_ne!(deal(8), deal(9));
    }

    #[test]
    fn churn_stream_keeps_the_document_size() {
        let xml = books_xml(30, 1);
        let mut e = engine_with(&xml);
        let start = shape(&e);
        let authors = author_counts(e.document(BOOKS_URI).unwrap().doc());
        let mut s = ChurnStream::new(authors, &churn_pool(), 4);
        let mut kinds = [0usize; 4];
        for _ in 0..50 {
            for op in s.next_cycle() {
                match op {
                    Op::Edit(edit) => {
                        kinds[EditKind::of(&edit) as usize] += 1;
                        e.apply(edit).expect("every dealt edit applies");
                    }
                    // Queries sit where the cycle is balanced.
                    Op::Query(_) => assert_eq!(shape(&e), start),
                }
            }
            assert_eq!(shape(&e), start);
        }
        // Insert, delete, set, move per 50 cycles.
        assert_eq!(kinds, [150, 150, 50, 50]);
        assert_eq!(
            author_counts(e.document(BOOKS_URI).unwrap().doc()),
            s.authors,
            "the stream's model tracks the document"
        );
    }

    #[test]
    fn serve_streams_are_deterministic_and_return_the_document_to_its_start() {
        let pool = serve_pool();
        let deal = |seed, client| {
            let mut s = ServeStream::new(&pool, seed, client);
            (0..10).flat_map(|_| s.next_cycle()).collect::<Vec<_>>()
        };
        assert_eq!(deal(2, 0), deal(2, 0));
        assert_ne!(deal(2, 0), deal(2, 1));
        assert_ne!(deal(2, 0), deal(3, 0));

        // Interleave two clients op by op, as the server may.
        let xml = books_xml(12, 1);
        let mut e = engine_with(&xml);
        let before = serialize(
            e.document(BOOKS_URI).unwrap().doc(),
            SerializeOptions::compact(),
        );
        let (a, b) = (deal(2, 0), deal(2, 1));
        assert_eq!(a.len(), 200);
        let edits = |ops: &[Op]| ops.iter().filter(|o| matches!(o, Op::Edit(_))).count();
        assert_eq!(edits(&a), 20);
        for (x, y) in a.into_iter().zip(b) {
            for op in [x, y] {
                if let Op::Edit(edit) = op {
                    e.apply(edit).expect("every dealt edit applies");
                }
            }
        }
        let after = serialize(
            e.document(BOOKS_URI).unwrap().doc(),
            SerializeOptions::compact(),
        );
        assert_eq!(before, after);
    }
}
