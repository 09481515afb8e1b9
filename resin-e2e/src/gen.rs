//! Seeded input generation: a self-contained PRNG, FNV-1a, post bodies and
//! the raw HTTP bytes of every request. The program under test sees only
//! the bytes produced here; the same seed always produces the same bytes.

/// SplitMix64 — small, seedable, and good enough to shape a workload.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i as u64 + 1) as usize);
        }
    }

    /// `n` sizes log-uniform over `min..=max` — every octave of sizes is
    /// equally likely, so short and long inputs both get real weight —
    /// taken at the distribution's quantiles and then shuffled. Every seed
    /// gets the same multiset of sizes in another order: the work a
    /// workload does must not depend on the seed's luck.
    pub fn stratified_sizes(&mut self, n: usize, min: usize, max: usize) -> Vec<usize> {
        let ratio = max as f64 / min as f64;
        let mut sizes: Vec<usize> = (0..n)
            .map(|i| {
                let q = (i as f64 + 0.5) / n as f64;
                ((min as f64 * ratio.powf(q)) as usize).clamp(min, max)
            })
            .collect();
        self.shuffle(&mut sizes);
        sizes
    }
}

pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// FNV-1a, foldable: pass the previous hash to continue a stream.
pub fn fnv1a(mut hash: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        hash ^= b as u64;
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

const HTML_SPECIALS: &[u8] = b"<>&\"'";

/// Lower-case words with ~5 % HTML-special bytes: the escaper and the
/// marker check both have real work on every body. No digits and no
/// upper case, so search terms and canary strings never occur by accident.
pub fn body_text(rng: &mut Rng, len: usize) -> String {
    let mut s = String::with_capacity(len);
    while s.len() < len {
        let r = rng.next();
        let c = match r % 100 {
            0..=4 => HTML_SPECIALS[(r >> 8) as usize % HTML_SPECIALS.len()],
            5..=19 => b' ',
            _ => b'a' + ((r >> 8) % 26) as u8,
        };
        s.push(c as char);
    }
    s
}

/// Plain prose without quotes or markup, for the HotCRP site (its inserts
/// are string-built, so the harness keeps the expected page independent of
/// quote doubling).
pub fn plain_text(rng: &mut Rng, len: usize) -> String {
    let mut s = String::with_capacity(len);
    while s.len() < len {
        let r = rng.next();
        let c = match r % 100 {
            0..=15 => b' ',
            16..=17 => b',',
            18 => b'.',
            _ => b'a' + ((r >> 8) % 26) as u8,
        };
        s.push(c as char);
    }
    s
}

/// The harness's own HTML escaper — expected pages are built with this,
/// never with the program's `html_escape`.
pub fn escape_html(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + s.len() / 8);
    for c in s.chars() {
        match c {
            '&' => out.push_str("&amp;"),
            '<' => out.push_str("&lt;"),
            '>' => out.push_str("&gt;"),
            '"' => out.push_str("&quot;"),
            '\'' => out.push_str("&#39;"),
            c => out.push(c),
        }
    }
    out
}

/// `application/x-www-form-urlencoded` value encoding.
pub fn form_encode(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + s.len() / 4);
    for &b in s.as_bytes() {
        match b {
            b'a'..=b'z' | b'A'..=b'Z' | b'0'..=b'9' | b'-' | b'_' | b'.' => out.push(b as char),
            b' ' => out.push('+'),
            b => out.push_str(&format!("%{b:02X}")),
        }
    }
    out
}

/// Inverse of [`form_encode`], for checking what a generated request
/// carried without keeping a second copy of every body.
pub fn form_decode(form: &[u8]) -> String {
    let mut out = Vec::with_capacity(form.len());
    let mut i = 0;
    while i < form.len() {
        match form[i] {
            b'+' => out.push(b' '),
            b'%' if form.len() >= i + 3 => {
                let hex = std::str::from_utf8(&form[i + 1..i + 3]).unwrap_or("");
                out.push(u8::from_str_radix(hex, 16).unwrap_or(b'?'));
                i += 2;
            }
            b => out.push(b),
        }
        i += 1;
    }
    String::from_utf8_lossy(&out).into_owned()
}

/// What a browser sends besides the request line: ~330 bytes the parser
/// must split, lower-case and taint on every request.
fn browser_headers(out: &mut Vec<u8>, sid: &str) {
    out.extend_from_slice(
        b"Host: forum.example.org\r\n\
          User-Agent: Mozilla/5.0 (X11; Linux x86_64; rv:128.0) Gecko/20100101 Firefox/128.0\r\n\
          Accept: text/html,application/xhtml+xml,application/xml;q=0.9,image/avif,*/*;q=0.8\r\n\
          Accept-Language: en-US,en;q=0.5\r\n\
          Cookie: sid=",
    );
    out.extend_from_slice(sid.as_bytes());
    out.extend_from_slice(b"; theme=dark; tz=Europe%2FLisbon\r\n");
}

/// Appends one `GET target` request.
pub fn push_get(out: &mut Vec<u8>, target: &str, sid: &str) {
    out.extend_from_slice(b"GET ");
    out.extend_from_slice(target.as_bytes());
    out.extend_from_slice(b" HTTP/1.1\r\n");
    browser_headers(out, sid);
    out.extend_from_slice(b"\r\n");
}

/// Appends one form `POST target` request.
pub fn push_post(out: &mut Vec<u8>, target: &str, sid: &str, form: &str) {
    out.extend_from_slice(b"POST ");
    out.extend_from_slice(target.as_bytes());
    out.extend_from_slice(b" HTTP/1.1\r\n");
    browser_headers(out, sid);
    out.extend_from_slice(
        format!(
            "Content-Type: application/x-www-form-urlencoded\r\nContent-Length: {}\r\n\r\n",
            form.len()
        )
        .as_bytes(),
    );
    out.extend_from_slice(form.as_bytes());
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rng_is_a_function_of_its_seed() {
        let a: Vec<u64> = {
            let mut r = Rng::new(7);
            (0..8).map(|_| r.next()).collect()
        };
        let b: Vec<u64> = {
            let mut r = Rng::new(7);
            (0..8).map(|_| r.next()).collect()
        };
        let c: Vec<u64> = {
            let mut r = Rng::new(8);
            (0..8).map(|_| r.next()).collect()
        };
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn stratified_sizes_are_the_same_multiset_for_every_seed() {
        let a = Rng::new(1).stratified_sizes(4000, 64, 4096);
        let b = Rng::new(2).stratified_sizes(4000, 64, 4096);
        assert_ne!(a, b, "order follows the seed");
        let sorted = |mut v: Vec<usize>| {
            v.sort_unstable();
            v
        };
        assert_eq!(sorted(a.clone()), sorted(b), "the sizes do not");
        assert!(a.iter().all(|&s| (64..=4096).contains(&s)));
        // Three of six octaves lie below 512: half the sizes.
        assert_eq!(a.iter().filter(|&&s| s < 512).count(), 2000);
    }

    #[test]
    fn bodies_carry_html_specials_and_no_digits() {
        let mut r = Rng::new(3);
        let body = body_text(&mut r, 20_000);
        let specials = body.bytes().filter(|b| HTML_SPECIALS.contains(b)).count();
        assert!((700..1300).contains(&specials), "{specials}");
        assert!(!body
            .bytes()
            .any(|b| b.is_ascii_digit() || b.is_ascii_uppercase()));
    }

    #[test]
    fn escape_and_encode_round_out_every_special() {
        assert_eq!(escape_html("a<b>&\"'"), "a&lt;b&gt;&amp;&quot;&#39;");
        assert_eq!(form_encode("a b<'"), "a+b%3C%27");
        assert_eq!(form_decode(b"a+b%3C%27"), "a b<'");
        let mut r = Rng::new(9);
        let body = body_text(&mut r, 500);
        assert_eq!(form_decode(form_encode(&body).as_bytes()), body);
    }

    #[test]
    fn requests_carry_a_browser_sized_head() {
        let mut get = Vec::new();
        push_get(
            &mut get,
            "/view?id=1",
            "sid-0123456789abcdef0123456789abcdef",
        );
        assert!((330..420).contains(&get.len()), "{}", get.len());
        assert!(get.ends_with(b"\r\n\r\n"));
        let mut post = Vec::new();
        push_post(&mut post, "/post", "sid-x", "body=hi");
        assert!(post.ends_with(b"Content-Length: 7\r\n\r\nbody=hi"));
    }
}
