//! `hbr` — the command-line front end of the D2D heartbeat relaying
//! framework.
//!
//! ```text
//! hbr quickstart [--ues N] [--transmissions N] [--distance M]
//! hbr crowd [--phones N] [--relays N] [--hours H] [--area M] [--seed S]
//!           [--push-mins M] [--mode d2d|original|both]
//!           [--checkpoint-dir DIR] [--checkpoint-every N]
//!           [--metrics-out FILE] [--events-out FILE]
//!           [--spans-out FILE] [--profile-out FILE] [--render-out FILE]
//! hbr serve [crowd flags] --checkpoint-dir DIR
//! hbr resume DIR [output flags]
//! hbr strategies [--app NAME] [--hours H] [--seed S]
//! hbr timeline FILE [--around SECS] [--window SECS] [--device N]
//!              [--spans FILE]
//! hbr spans FILE [--outcome NAME] [--device N] [--slowest N] [--id ID]
//! hbr help
//! ```

use std::process::ExitCode;

mod args;
mod commands;
mod spans;
mod timeline;

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    commands::exec(&argv)
}
