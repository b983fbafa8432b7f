//! The small scope's programs: a few threads of a few letters each, named
//! by their letters (`scope-aAs-lla` is two threads, `aAs` and `lla`).
//! `tests/small_scope.rs` enumerates them, and the digest matrix runs one
//! by that name, so a program the enumeration flags is a `TABLE` line.

#![allow(dead_code)] // each includer uses part of it

use flashsim_isa::{Placement, Program, Segment, Sink, VAddr};

/// The letters the enumeration takes: `a` is `alu(1)`, `A` is `alu(50)`,
/// `s` a store to the one shared line, `l` a load of the thread's private
/// line. A program may also hold `b`, a barrier.
pub const ALPHABET: [char; 4] = ['a', 'A', 's', 'l'];

const SHARED: u64 = 0x10000;
const PRIVATE: u64 = 0x100000;
const PAGE: u64 = 4096;

/// A program of one letter string per thread.
#[derive(Debug, Clone)]
pub struct Scope {
    threads: Vec<String>,
}

impl Scope {
    /// The program of `threads`, one letter string each.
    pub fn new(threads: &[&str]) -> Scope {
        let threads: Vec<String> = threads.iter().map(|t| t.to_string()).collect();
        let known = |c: char| ALPHABET.contains(&c) || c == 'b';
        assert!(threads.iter().all(|t| t.chars().all(known)), "{threads:?}");
        Scope { threads }
    }

    /// The program a name of [`Program::name`]'s shape names, if it is one.
    pub fn parse(name: &str) -> Option<Scope> {
        let threads: Vec<&str> = name.strip_prefix("scope-")?.split('-').collect();
        Some(Scope::new(&threads))
    }
}

impl Program for Scope {
    fn name(&self) -> String {
        format!("scope-{}", self.threads.join("-"))
    }

    fn num_threads(&self) -> usize {
        self.threads.len()
    }

    fn segments(&self) -> Vec<Segment> {
        let private = PAGE * self.threads.len() as u64;
        vec![
            Segment::new("shared", VAddr(SHARED), PAGE, Placement::Node(0)),
            Segment::new("private", VAddr(PRIVATE), private, Placement::Blocked),
        ]
    }

    fn thread_body(&self, tid: usize) -> Box<dyn FnOnce(&mut Sink) + Send + 'static> {
        let letters = self.threads[tid].clone();
        Box::new(move |sink| {
            for letter in letters.chars() {
                match letter {
                    'a' => sink.alu(1),
                    'A' => sink.alu(50),
                    's' => sink.store(VAddr(SHARED)),
                    'l' => {
                        sink.load(VAddr(PRIVATE + tid as u64 * PAGE));
                    }
                    _ => sink.barrier(),
                }
            }
        })
    }
}
