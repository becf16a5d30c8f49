//! A binary trie over IPv4 CIDR blocks with longest-prefix-match lookup.

use panoptes_http::netaddr::{Cidr, IpAddr};

/// One trie node; children indexed by the next address bit.
#[derive(Clone)]
struct Node<T> {
    value: Option<T>,
    children: [Option<Box<Node<T>>>; 2],
}

impl<T> Node<T> {
    fn empty() -> Node<T> {
        Node { value: None, children: [None, None] }
    }
}

/// A longest-prefix-match map from CIDR blocks to values.
#[derive(Clone)]
pub struct CidrTrie<T> {
    root: Node<T>,
    len: usize,
}

impl<T> Default for CidrTrie<T> {
    fn default() -> Self {
        CidrTrie { root: Node::empty(), len: 0 }
    }
}

impl<T> CidrTrie<T> {
    /// An empty trie.
    pub fn new() -> CidrTrie<T> {
        CidrTrie::default()
    }

    /// Inserts `value` for `block`, replacing any value previously stored
    /// at exactly that prefix.
    pub fn insert(&mut self, block: Cidr, value: T) {
        let mut node = &mut self.root;
        for depth in 0..block.prefix {
            let bit = ((block.base.0 >> (31 - depth)) & 1) as usize;
            node = node.children[bit].get_or_insert_with(|| Box::new(Node::empty()));
        }
        if node.value.is_none() {
            self.len += 1;
        }
        node.value = Some(value);
    }

    /// Longest-prefix lookup: the value of the most specific block
    /// containing `ip`.
    pub fn lookup(&self, ip: IpAddr) -> Option<&T> {
        let mut best: Option<&T> = None;
        let mut node = &self.root;
        if let Some(v) = &node.value {
            best = Some(v);
        }
        for depth in 0..32 {
            let bit = ((ip.0 >> (31 - depth)) & 1) as usize;
            match &node.children[bit] {
                Some(child) => {
                    node = child;
                    if let Some(v) = &node.value {
                        best = Some(v);
                    }
                }
                None => break,
            }
        }
        best
    }

    /// Number of stored prefixes.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no prefixes are stored.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cidr(s: &str) -> Cidr {
        Cidr::parse(s).unwrap()
    }

    fn ip(s: &str) -> IpAddr {
        IpAddr::parse(s).unwrap()
    }

    #[test]
    fn basic_lookup() {
        let mut trie = CidrTrie::new();
        trie.insert(cidr("10.0.0.0/8"), "ten");
        assert_eq!(trie.lookup(ip("10.1.2.3")), Some(&"ten"));
        assert_eq!(trie.lookup(ip("11.1.2.3")), None);
    }

    #[test]
    fn longest_prefix_wins() {
        let mut trie = CidrTrie::new();
        trie.insert(cidr("10.0.0.0/8"), "broad");
        trie.insert(cidr("10.5.0.0/16"), "narrow");
        trie.insert(cidr("10.5.5.0/24"), "narrowest");
        assert_eq!(trie.lookup(ip("10.1.0.1")), Some(&"broad"));
        assert_eq!(trie.lookup(ip("10.5.9.1")), Some(&"narrow"));
        assert_eq!(trie.lookup(ip("10.5.5.200")), Some(&"narrowest"));
    }

    #[test]
    fn exact_slash32() {
        let mut trie = CidrTrie::new();
        trie.insert(cidr("8.8.8.8/32"), "dns");
        assert_eq!(trie.lookup(ip("8.8.8.8")), Some(&"dns"));
        assert_eq!(trie.lookup(ip("8.8.8.9")), None);
    }

    #[test]
    fn default_route() {
        let mut trie = CidrTrie::new();
        trie.insert(cidr("0.0.0.0/0"), "anywhere");
        trie.insert(cidr("192.168.0.0/16"), "lan");
        assert_eq!(trie.lookup(ip("1.2.3.4")), Some(&"anywhere"));
        assert_eq!(trie.lookup(ip("192.168.3.4")), Some(&"lan"));
    }

    #[test]
    fn insert_replaces_same_prefix() {
        let mut trie = CidrTrie::new();
        trie.insert(cidr("10.0.0.0/8"), 1);
        trie.insert(cidr("10.0.0.0/8"), 2);
        assert_eq!(trie.len(), 1);
        assert_eq!(trie.lookup(ip("10.0.0.1")), Some(&2));
    }

    #[test]
    fn empty_trie() {
        let trie: CidrTrie<()> = CidrTrie::new();
        assert!(trie.is_empty());
        assert_eq!(trie.lookup(ip("1.1.1.1")), None);
    }
}
