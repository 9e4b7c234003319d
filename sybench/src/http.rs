//! A minimal blocking HTTP/1.1 client for the service's
//! `Connection: close` front end: one connection per request.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};

/// Sends one request and reads the whole response. Returns the status
/// and the body; the call returns as soon as the last body byte (by
/// `Content-Length`) has arrived.
pub fn request(
    addr: SocketAddr,
    method: &str,
    path: &str,
    body: &[u8],
) -> std::io::Result<(u16, Vec<u8>)> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    let head = format!(
        "{method} {path} HTTP/1.1\r\nHost: {addr}\r\nContent-Type: application/json\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    stream.write_all(head.as_bytes())?;
    stream.write_all(body)?;
    stream.flush()?;

    let bad = |msg: &str| std::io::Error::new(std::io::ErrorKind::InvalidData, msg.to_string());
    let mut buf = Vec::with_capacity(4096);
    let mut chunk = vec![0u8; 64 << 10];
    let (header_end, status, length) = loop {
        if let Some(end) = buf.windows(4).position(|w| w == b"\r\n\r\n") {
            let head = String::from_utf8_lossy(&buf[..end]).into_owned();
            let status = head
                .split_whitespace()
                .nth(1)
                .and_then(|s| s.parse::<u16>().ok())
                .ok_or_else(|| bad("malformed status line"))?;
            let length = head
                .lines()
                .find_map(|l| {
                    let (k, v) = l.split_once(':')?;
                    k.eq_ignore_ascii_case("content-length")
                        .then(|| v.trim().parse::<usize>().ok())?
                })
                .ok_or_else(|| bad("response without Content-Length"))?;
            break (end + 4, status, length);
        }
        let got = stream.read(&mut chunk)?;
        if got == 0 {
            return Err(bad("connection closed before the headers ended"));
        }
        buf.extend_from_slice(&chunk[..got]);
    };
    while buf.len() < header_end + length {
        let got = stream.read(&mut chunk)?;
        if got == 0 {
            return Err(bad("connection closed mid-body"));
        }
        buf.extend_from_slice(&chunk[..got]);
    }
    Ok((status, buf[header_end..header_end + length].to_vec()))
}
