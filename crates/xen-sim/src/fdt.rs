//! Flattened Device Tree construction.
//!
//! Xen/ARM guests boot with register `r2` pointing at a Flattened Device
//! Tree (FDT) describing memory, the hypervisor node, the console and the
//! command line — "a similar key/value store to the one supplied by native
//! ARM bootloaders ... much simpler than x86 booting, where configuration
//! information is spread across virtualized BIOS, memory and Xen-specific
//! interfaces" (§2.3). The domain builder constructs one of these per guest;
//! this module provides a small tree builder plus a binary encoding (a
//! simplified DTB: tagged begin/end node and property records), whose size
//! the builder reports, and a parser that checks those bytes round-trip.

use std::collections::BTreeMap;

/// A device-tree node: properties plus named children.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct FdtNode {
    /// Property name → value bytes.
    pub properties: BTreeMap<String, Vec<u8>>,
    /// Child nodes by name.
    pub children: BTreeMap<String, FdtNode>,
}

impl FdtNode {
    /// Look up a property on this node.
    pub fn property(&self, name: &str) -> Option<&[u8]> {
        self.properties.get(name).map(|v| v.as_slice())
    }

    /// Look up a property and decode it as a big-endian u64 cell pair.
    pub fn property_u64(&self, name: &str) -> Option<u64> {
        let v = self.properties.get(name)?;
        if v.len() != 8 {
            return None;
        }
        Some(u64::from_be_bytes(v.as_slice().try_into().ok()?))
    }

    /// Look up a property and decode it as a NUL-terminated string.
    pub fn property_str(&self, name: &str) -> Option<String> {
        let v = self.properties.get(name)?;
        let end = v.iter().position(|&b| b == 0).unwrap_or(v.len());
        Some(String::from_utf8_lossy(&v[..end]).into_owned())
    }

    /// Find a descendant by `/`-separated path (relative to this node).
    pub fn find(&self, path: &str) -> Option<&FdtNode> {
        let mut node = self;
        for comp in path.split('/').filter(|c| !c.is_empty()) {
            node = node.children.get(comp)?;
        }
        Some(node)
    }

    /// Total number of nodes in this subtree.
    pub fn node_count(&self) -> usize {
        1 + self
            .children
            .values()
            .map(FdtNode::node_count)
            .sum::<usize>()
    }
}

/// Builder for a guest's device tree.
#[derive(Debug, Clone, Default)]
pub struct FdtBuilder {
    root: FdtNode,
}

impl FdtBuilder {
    /// Start an empty tree.
    pub fn new() -> FdtBuilder {
        FdtBuilder::default()
    }

    /// Set a property at a `/`-separated path, creating nodes as needed.
    pub fn set_property(&mut self, path: &str, name: &str, value: &[u8]) -> &mut Self {
        let mut node = &mut self.root;
        for comp in path.split('/').filter(|c| !c.is_empty()) {
            node = node.children.entry(comp.to_string()).or_default();
        }
        node.properties.insert(name.to_string(), value.to_vec());
        self
    }

    /// Set a string property (NUL-terminated, per DT convention).
    pub fn set_str(&mut self, path: &str, name: &str, value: &str) -> &mut Self {
        let mut bytes = value.as_bytes().to_vec();
        bytes.push(0);
        self.set_property(path, name, &bytes)
    }

    /// Set a 64-bit big-endian property (address/size cells).
    pub fn set_u64(&mut self, path: &str, name: &str, value: u64) -> &mut Self {
        self.set_property(path, name, &value.to_be_bytes())
    }

    /// Build the standard tree Xen constructs for an ARM guest: the model
    /// string, a `/memory` node with the RAM range, a `/hypervisor` node
    /// with the Xen version and the XenStore/console event channel
    /// references, and a `/chosen` node carrying the kernel command line.
    pub fn standard_guest(
        ram_base: u64,
        ram_bytes: u64,
        cmdline: &str,
        xenstore_port: u32,
        console_port: u32,
    ) -> FdtBuilder {
        let mut b = FdtBuilder::new();
        b.set_str("/", "compatible", "xen,xenvm-4.5");
        b.set_str("/", "model", "XENVM-4.5");
        b.set_u64("/memory", "reg-base", ram_base);
        b.set_u64("/memory", "reg-size", ram_bytes);
        b.set_str("/memory", "device_type", "memory");
        b.set_str("/hypervisor", "compatible", "xen,xen-4.5");
        b.set_u64("/hypervisor", "xenstore-evtchn", xenstore_port as u64);
        b.set_u64("/hypervisor", "console-evtchn", console_port as u64);
        b.set_str("/chosen", "bootargs", cmdline);
        b
    }

    /// Finish building, returning the tree.
    pub fn build(self) -> FdtNode {
        self.root
    }

    /// Encode directly to DTB bytes.
    pub fn encode(&self) -> Vec<u8> {
        encode(&self.root)
    }
}

// --- Binary encoding -----------------------------------------------------

const FDT_MAGIC: u32 = 0xd00dfeed;
const TAG_BEGIN_NODE: u8 = 1;
const TAG_END_NODE: u8 = 2;
const TAG_PROP: u8 = 3;
const TAG_END: u8 = 9;

fn push_str(out: &mut Vec<u8>, s: &str) {
    out.extend_from_slice(&(s.len() as u32).to_be_bytes());
    out.extend_from_slice(s.as_bytes());
}

fn read_u32(buf: &[u8], pos: &mut usize) -> Option<u32> {
    if *pos + 4 > buf.len() {
        return None;
    }
    let v = u32::from_be_bytes(buf[*pos..*pos + 4].try_into().ok()?);
    *pos += 4;
    Some(v)
}

fn read_bytes<'a>(buf: &'a [u8], pos: &mut usize, len: usize) -> Option<&'a [u8]> {
    if *pos + len > buf.len() {
        return None;
    }
    let s = &buf[*pos..*pos + len];
    *pos += len;
    Some(s)
}

fn encode_node(out: &mut Vec<u8>, name: &str, node: &FdtNode) {
    out.push(TAG_BEGIN_NODE);
    push_str(out, name);
    for (pname, value) in &node.properties {
        out.push(TAG_PROP);
        push_str(out, pname);
        out.extend_from_slice(&(value.len() as u32).to_be_bytes());
        out.extend_from_slice(value);
    }
    for (cname, child) in &node.children {
        encode_node(out, cname, child);
    }
    out.push(TAG_END_NODE);
}

/// Encode a tree to DTB bytes.
pub fn encode(root: &FdtNode) -> Vec<u8> {
    let mut out = Vec::new();
    out.extend_from_slice(&FDT_MAGIC.to_be_bytes());
    encode_node(&mut out, "", root);
    out.push(TAG_END);
    out
}

fn decode_node(buf: &[u8], pos: &mut usize) -> Option<(String, FdtNode)> {
    if buf.get(*pos) != Some(&TAG_BEGIN_NODE) {
        return None;
    }
    *pos += 1;
    let name_len = read_u32(buf, pos)? as usize;
    let name = String::from_utf8_lossy(read_bytes(buf, pos, name_len)?).into_owned();
    let mut node = FdtNode::default();
    loop {
        match *buf.get(*pos)? {
            TAG_PROP => {
                *pos += 1;
                let pname_len = read_u32(buf, pos)? as usize;
                let pname = String::from_utf8_lossy(read_bytes(buf, pos, pname_len)?).into_owned();
                let vlen = read_u32(buf, pos)? as usize;
                let value = read_bytes(buf, pos, vlen)?.to_vec();
                node.properties.insert(pname, value);
            }
            TAG_BEGIN_NODE => {
                let (cname, child) = decode_node(buf, pos)?;
                node.children.insert(cname, child);
            }
            TAG_END_NODE => {
                *pos += 1;
                return Some((name, node));
            }
            _ => return None,
        }
    }
}

/// Decode DTB bytes back into a tree. Returns `None` on malformed input.
pub fn decode(buf: &[u8]) -> Option<FdtNode> {
    let mut pos = 0;
    let magic = read_u32(buf, &mut pos)?;
    if magic != FDT_MAGIC {
        return None;
    }
    let (_, root) = decode_node(buf, &mut pos)?;
    if buf.get(pos) != Some(&TAG_END) {
        return None;
    }
    Some(root)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_sets_nested_properties() {
        let mut b = FdtBuilder::new();
        b.set_str("/chosen", "bootargs", "console=hvc0");
        b.set_u64("/memory", "reg-size", 16 * 1024 * 1024);
        let root = b.build();
        assert_eq!(
            root.find("chosen")
                .unwrap()
                .property_str("bootargs")
                .unwrap(),
            "console=hvc0"
        );
        assert_eq!(
            root.find("memory")
                .unwrap()
                .property_u64("reg-size")
                .unwrap(),
            16 * 1024 * 1024
        );
        assert!(root.find("missing").is_none());
        assert_eq!(root.node_count(), 3);
    }

    #[test]
    fn standard_guest_tree_has_required_nodes() {
        let fdt = FdtBuilder::standard_guest(0x4000_0000, 16 << 20, "jitsu=1", 1, 2).build();
        assert_eq!(fdt.property_str("compatible").unwrap(), "xen,xenvm-4.5");
        let mem = fdt.find("memory").unwrap();
        assert_eq!(mem.property_u64("reg-base").unwrap(), 0x4000_0000);
        assert_eq!(mem.property_u64("reg-size").unwrap(), 16 << 20);
        let hyp = fdt.find("hypervisor").unwrap();
        assert_eq!(hyp.property_u64("xenstore-evtchn").unwrap(), 1);
        assert_eq!(hyp.property_u64("console-evtchn").unwrap(), 2);
        assert_eq!(
            fdt.find("chosen")
                .unwrap()
                .property_str("bootargs")
                .unwrap(),
            "jitsu=1"
        );
    }

    #[test]
    fn encode_decode_round_trip() {
        let fdt =
            FdtBuilder::standard_guest(0x4000_0000, 256 << 20, "root=/dev/xvda1", 3, 4).build();
        let bytes = encode(&fdt);
        let decoded = decode(&bytes).unwrap();
        assert_eq!(decoded, fdt);
    }

    #[test]
    fn decode_rejects_bad_magic_and_truncation() {
        let fdt = FdtBuilder::standard_guest(0, 8 << 20, "", 1, 2).build();
        let mut bytes = encode(&fdt);
        assert!(decode(&bytes[..bytes.len() - 2]).is_none(), "truncated");
        bytes[0] = 0xff;
        assert!(decode(&bytes).is_none(), "bad magic");
        assert!(decode(&[]).is_none());
    }

    #[test]
    fn property_accessors_handle_wrong_types() {
        let mut b = FdtBuilder::new();
        b.set_str("/", "name", "hello");
        let root = b.build();
        assert_eq!(root.property_u64("name"), None, "string is not a u64 cell");
        assert_eq!(root.property("missing"), None);
        assert_eq!(
            root.property("name").unwrap().last(),
            Some(&0u8),
            "NUL terminated"
        );
    }

    #[test]
    fn builder_encode_matches_module_encode() {
        let mut b = FdtBuilder::new();
        b.set_str("/chosen", "bootargs", "x");
        assert_eq!(b.encode(), encode(&b.clone().build()));
    }
}
