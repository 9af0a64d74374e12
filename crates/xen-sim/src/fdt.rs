//! Flattened Device Tree construction.
//!
//! Xen/ARM guests boot with register `r2` pointing at a Flattened Device
//! Tree (FDT) describing memory, the hypervisor node, the console and the
//! command line — "a similar key/value store to the one supplied by native
//! ARM bootloaders ... much simpler than x86 booting, where configuration
//! information is spread across virtualized BIOS, memory and Xen-specific
//! interfaces" (§2.3). The domain builder writes one per guest with
//! [`standard_guest`]: a simplified DTB of tagged begin/end node and
//! property records, written in one pass, in encoded order, into a buffer
//! sized exactly. No tree is built first.

const FDT_MAGIC: u32 = 0xd00dfeed;
const TAG_BEGIN_NODE: u8 = 1;
const TAG_END_NODE: u8 = 2;
const TAG_PROP: u8 = 3;
const TAG_END: u8 = 9;

/// Bytes of the standard guest's DTB besides its command line's text.
const STANDARD_GUEST_LEN: usize = 297;

/// A record's tag and its length-prefixed name.
fn record(out: &mut Vec<u8>, tag: u8, name: &str) {
    out.push(tag);
    out.extend_from_slice(&(name.len() as u32).to_be_bytes());
    out.extend_from_slice(name.as_bytes());
}

/// A string property (NUL-terminated, per DT convention) whose value is
/// `parts` written back to back.
fn prop_str(out: &mut Vec<u8>, name: &str, parts: &[&str]) {
    record(out, TAG_PROP, name);
    let len = parts.iter().map(|p| p.len()).sum::<usize>() + 1;
    out.extend_from_slice(&(len as u32).to_be_bytes());
    for part in parts {
        out.extend_from_slice(part.as_bytes());
    }
    out.push(0);
}

/// A 64-bit big-endian property (address/size cells).
fn prop_u64(out: &mut Vec<u8>, name: &str, value: u64) {
    record(out, TAG_PROP, name);
    out.extend_from_slice(&8u32.to_be_bytes());
    out.extend_from_slice(&value.to_be_bytes());
}

/// Write the standard DTB Xen hands an ARM guest: the model string, a
/// `/chosen` node carrying the kernel command line (`bootargs` written back
/// to back, so a caller need not join its parts), a `/hypervisor` node with
/// the Xen version and the console/XenStore event channels, and a
/// `/memory` node with the RAM range, all in name order.
pub fn standard_guest(
    ram_base: u64,
    ram_bytes: u64,
    bootargs: &[&str],
    xenstore_port: u32,
    console_port: u32,
) -> Vec<u8> {
    let len = STANDARD_GUEST_LEN + bootargs.iter().map(|a| a.len()).sum::<usize>();
    let mut out = Vec::with_capacity(len);
    out.extend_from_slice(&FDT_MAGIC.to_be_bytes());
    record(&mut out, TAG_BEGIN_NODE, "");
    prop_str(&mut out, "compatible", &["xen,xenvm-4.5"]);
    prop_str(&mut out, "model", &["XENVM-4.5"]);
    record(&mut out, TAG_BEGIN_NODE, "chosen");
    prop_str(&mut out, "bootargs", bootargs);
    out.push(TAG_END_NODE);
    record(&mut out, TAG_BEGIN_NODE, "hypervisor");
    prop_str(&mut out, "compatible", &["xen,xen-4.5"]);
    prop_u64(&mut out, "console-evtchn", console_port as u64);
    prop_u64(&mut out, "xenstore-evtchn", xenstore_port as u64);
    out.push(TAG_END_NODE);
    record(&mut out, TAG_BEGIN_NODE, "memory");
    prop_str(&mut out, "device_type", &["memory"]);
    prop_u64(&mut out, "reg-base", ram_base);
    prop_u64(&mut out, "reg-size", ram_bytes);
    out.extend_from_slice(&[TAG_END_NODE, TAG_END_NODE, TAG_END]);
    debug_assert_eq!(out.len(), len);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// What the tree builder this writer replaced encoded for three guests,
    /// as hex: a Cubieboard2 unikernel's DTB, an x86 command line, and
    /// extreme values.
    const SVC003: &str = concat!(
        "d00dfeed0100000000030000000a636f6d70617469626c650000000e78656e2c",
        "78656e766d2d342e350003000000056d6f64656c0000000a58454e564d2d342e",
        "3500010000000663686f73656e0300000008626f6f74617267730000002d636f",
        "6e736f6c653d68766330206a697473752e6e616d653d7376633030332e73746f",
        "726d2e6578616d706c650002010000000a68797065727669736f72030000000a",
        "636f6d70617469626c650000000c78656e2c78656e2d342e3500030000000e63",
        "6f6e736f6c652d65767463686e000000080000000000000002030000000f7865",
        "6e73746f72652d65767463686e0000000800000000000000010201000000066d",
        "656d6f7279030000000b6465766963655f74797065000000076d656d6f727900",
        "03000000087265672d6261736500000008000000004000000003000000087265",
        "672d73697a65000000080000000001000000020209",
    );
    const X86: &str = concat!(
        "d00dfeed0100000000030000000a636f6d70617469626c650000000e78656e2c",
        "78656e766d2d342e350003000000056d6f64656c0000000a58454e564d2d342e",
        "3500010000000663686f73656e0300000008626f6f746172677300000034636f",
        "6e736f6c653d6876633020726f6f743d2f6465762f7876646131206a69747375",
        "2e6e616d653d7765622e6578616d706c650002010000000a6879706572766973",
        "6f72030000000a636f6d70617469626c650000000c78656e2c78656e2d342e35",
        "00030000000e636f6e736f6c652d65767463686e000000080000000000000002",
        "030000000f78656e73746f72652d65767463686e000000080000000000000001",
        "0201000000066d656d6f7279030000000b6465766963655f7479706500000007",
        "6d656d6f72790003000000087265672d62617365000000080000000040000000",
        "03000000087265672d73697a65000000080000000010000000020209",
    );
    const EXTREMES: &str = concat!(
        "d00dfeed0100000000030000000a636f6d70617469626c650000000e78656e2c",
        "78656e766d2d342e350003000000056d6f64656c0000000a58454e564d2d342e",
        "3500010000000663686f73656e0300000008626f6f746172677300000019636f",
        "6e736f6c653d68766330206a697473752e6e616d653d0002010000000a687970",
        "65727669736f72030000000a636f6d70617469626c650000000c78656e2c7865",
        "6e2d342e3500030000000e636f6e736f6c652d65767463686e00000008000000",
        "000000ffff030000000f78656e73746f72652d65767463686e00000008000000",
        "00000000000201000000066d656d6f7279030000000b6465766963655f747970",
        "65000000076d656d6f72790003000000087265672d6261736500000008000000",
        "000000000003000000087265672d73697a650000000800000100000000000202",
        "09",
    );

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    fn svc003() -> Vec<u8> {
        standard_guest(
            0x4000_0000,
            16 << 20,
            &["console=hvc0 jitsu.name=", "svc003.storm.example"],
            1,
            2,
        )
    }

    fn x86() -> Vec<u8> {
        standard_guest(
            0x4000_0000,
            256 << 20,
            &["console=hvc0 root=/dev/xvda1 jitsu.name=", "web.example"],
            1,
            2,
        )
    }

    fn extremes() -> Vec<u8> {
        standard_guest(0, 1 << 40, &["console=hvc0 jitsu.name=", ""], 0, 65_535)
    }

    fn read_u32(buf: &[u8], pos: &mut usize) -> Option<u32> {
        let v = u32::from_be_bytes(buf.get(*pos..*pos + 4)?.try_into().ok()?);
        *pos += 4;
        Some(v)
    }

    fn read_str(buf: &[u8], pos: &mut usize) -> Option<String> {
        let len = read_u32(buf, pos)? as usize;
        let s = std::str::from_utf8(buf.get(*pos..*pos + len)?).ok()?;
        *pos += len;
        Some(s.to_string())
    }

    /// Walk one node, appending each property as its `/`-joined path (from
    /// below the root) and value.
    fn decode_node(
        buf: &[u8],
        pos: &mut usize,
        parent: &str,
        props: &mut Vec<(String, Vec<u8>)>,
    ) -> Option<()> {
        if buf.get(*pos) != Some(&TAG_BEGIN_NODE) {
            return None;
        }
        *pos += 1;
        let name = read_str(buf, pos)?;
        let path = match (parent, name.as_str()) {
            ("", name) => name.to_string(),
            (parent, name) => format!("{parent}/{name}"),
        };
        loop {
            match *buf.get(*pos)? {
                TAG_PROP => {
                    *pos += 1;
                    let pname = read_str(buf, pos)?;
                    let len = read_u32(buf, pos)? as usize;
                    let value = buf.get(*pos..*pos + len)?.to_vec();
                    *pos += len;
                    let key = match path.as_str() {
                        "" => pname,
                        path => format!("{path}/{pname}"),
                    };
                    props.push((key, value));
                }
                TAG_BEGIN_NODE => decode_node(buf, pos, &path, props)?,
                TAG_END_NODE => {
                    *pos += 1;
                    return Some(());
                }
                _ => return None,
            }
        }
    }

    /// Every property of a DTB in the order written, or `None` if the bytes
    /// are malformed or do not end where the tree does.
    fn decode(buf: &[u8]) -> Option<Vec<(String, Vec<u8>)>> {
        let mut pos = 0;
        if read_u32(buf, &mut pos)? != FDT_MAGIC {
            return None;
        }
        let mut props = Vec::new();
        decode_node(buf, &mut pos, "", &mut props)?;
        (pos + 1 == buf.len() && buf[pos] == TAG_END).then_some(props)
    }

    /// Every property the standard guest's DTB should hold, in order.
    fn expected(bootargs: &str, base: u64, size: u64, xs: u64, con: u64) -> Vec<(String, Vec<u8>)> {
        let string = |s: &str| [s.as_bytes(), &[0]].concat();
        let cell = |v: u64| v.to_be_bytes().to_vec();
        [
            ("compatible", string("xen,xenvm-4.5")),
            ("model", string("XENVM-4.5")),
            ("chosen/bootargs", string(bootargs)),
            ("hypervisor/compatible", string("xen,xen-4.5")),
            ("hypervisor/console-evtchn", cell(con)),
            ("hypervisor/xenstore-evtchn", cell(xs)),
            ("memory/device_type", string("memory")),
            ("memory/reg-base", cell(base)),
            ("memory/reg-size", cell(size)),
        ]
        .into_iter()
        .map(|(k, v)| (k.to_string(), v))
        .collect()
    }

    #[test]
    fn standard_guest_tree_has_required_nodes() {
        assert_eq!(
            decode(&svc003()),
            Some(expected(
                "console=hvc0 jitsu.name=svc003.storm.example",
                0x4000_0000,
                16 << 20,
                1,
                2
            ))
        );
    }

    #[test]
    fn encode_decode_round_trip() {
        let x86_args = "console=hvc0 root=/dev/xvda1 jitsu.name=web.example";
        assert_eq!(
            decode(&x86()),
            Some(expected(x86_args, 0x4000_0000, 256 << 20, 1, 2))
        );
        assert_eq!(
            decode(&extremes()),
            Some(expected("console=hvc0 jitsu.name=", 0, 1 << 40, 0, 65_535))
        );
    }

    #[test]
    fn decode_rejects_bad_magic_and_truncation() {
        let mut bytes = extremes();
        assert!(decode(&bytes[..bytes.len() - 2]).is_none(), "truncated");
        assert!(decode(&[bytes.as_slice(), &[TAG_END]].concat()).is_none());
        bytes[0] = 0xff;
        assert!(decode(&bytes).is_none(), "bad magic");
        assert!(decode(&[]).is_none());
    }

    #[test]
    fn standard_guest_writes_the_recorded_bytes_into_an_exact_buffer() {
        for (bytes, recorded) in [(svc003(), SVC003), (x86(), X86), (extremes(), EXTREMES)] {
            assert_eq!(hex(&bytes), recorded);
            assert_eq!(bytes.capacity(), bytes.len(), "sized exactly");
        }
        assert_eq!(
            [svc003().len(), x86().len(), extremes().len()],
            [341, 348, 321]
        );
    }
}
