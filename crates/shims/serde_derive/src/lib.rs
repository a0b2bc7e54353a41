//! Offline stand-in for the real `serde_derive` crate.
//!
//! This workspace builds in an air-gapped container, so the published
//! `serde`/`serde_derive` crates cannot be fetched. The workspace-local
//! `serde` shim defines `Serialize`/`Deserialize` as empty marker traits,
//! and these derives emit the matching empty impls. Swapping the path
//! dependencies in the root manifest for the crates.io versions restores
//! real serialization without touching any call site.

#![forbid(unsafe_code)]

use proc_macro::{TokenStream, TokenTree};

/// The pieces of a type definition the empty-impl derives need.
struct TypeHeader {
    /// Type name, e.g. `Scenario`.
    name: String,
    /// Raw generic parameter list without the angle brackets, e.g.
    /// `'a, T: Clone, const N: usize`. Empty for non-generic types.
    params_decl: String,
    /// Generic arguments for the `for Type<...>` position, e.g. `'a, T, N`.
    params_use: String,
}

/// Extracts the type name and generics from a `struct`/`enum`/`union` item.
fn parse_header(input: TokenStream) -> TypeHeader {
    let mut tokens = input.into_iter().peekable();
    // Skip attributes (`#[...]`) and visibility (`pub`, `pub(...)`).
    let name = loop {
        match tokens.next() {
            Some(TokenTree::Punct(p)) if p.as_char() == '#' => {
                // The following bracketed group is the attribute body.
                tokens.next();
            }
            Some(TokenTree::Ident(id))
                if id.to_string() == "struct"
                    || id.to_string() == "enum"
                    || id.to_string() == "union" =>
            {
                match tokens.next() {
                    Some(TokenTree::Ident(name)) => break name.to_string(),
                    other => panic!("expected type name after struct/enum, got {other:?}"),
                }
            }
            Some(_) => {}
            None => panic!("derive input ended before a struct/enum keyword"),
        }
    };

    // Collect the generic parameter tokens between `<` and the matching `>`.
    let mut decl_parts: Vec<String> = Vec::new();
    if let Some(TokenTree::Punct(p)) = tokens.peek() {
        if p.as_char() == '<' {
            tokens.next();
            let mut depth = 1usize;
            for tok in tokens.by_ref() {
                match &tok {
                    TokenTree::Punct(p) if p.as_char() == '<' => depth += 1,
                    TokenTree::Punct(p) if p.as_char() == '>' => {
                        depth -= 1;
                        if depth == 0 {
                            break;
                        }
                    }
                    _ => {}
                }
                decl_parts.push(tok.to_string());
            }
        }
    }
    let params_decl = decl_parts.join(" ");

    // Derive the usage list (parameter names only) from the declaration:
    // split on top-level commas, keep the leading lifetime/ident of each
    // parameter, and drop bounds/defaults.
    let mut params_use_parts: Vec<String> = Vec::new();
    for param in split_top_level(&decl_parts) {
        if let Some(name) = param_name(&param) {
            params_use_parts.push(name);
        }
    }
    let params_use = params_use_parts.join(", ");

    TypeHeader {
        name,
        params_decl,
        params_use,
    }
}

/// Splits a generic parameter token list on commas not nested in `<>`.
fn split_top_level(tokens: &[String]) -> Vec<Vec<String>> {
    let mut out = Vec::new();
    let mut current = Vec::new();
    let mut depth = 0i32;
    for tok in tokens {
        match tok.as_str() {
            "<" => depth += 1,
            ">" => depth -= 1,
            "," if depth == 0 => {
                if !current.is_empty() {
                    out.push(std::mem::take(&mut current));
                }
                continue;
            }
            _ => {}
        }
        current.push(tok.clone());
    }
    if !current.is_empty() {
        out.push(current);
    }
    out
}

/// Returns the bare name of one generic parameter (`'a`, `T`, or `N` for
/// `const N: usize`), or `None` for something unrecognized.
fn param_name(param: &[String]) -> Option<String> {
    match param.first().map(String::as_str) {
        Some("'") => param.get(1).map(|id| format!("'{id}")),
        Some("const") => param.get(1).cloned(),
        Some(_) => param.first().cloned(),
        None => None,
    }
}

fn empty_impls(input: TokenStream, ser: bool) -> TokenStream {
    let header = parse_header(input);
    let name = &header.name;
    let ty = if header.params_use.is_empty() {
        name.clone()
    } else {
        format!("{name}<{}>", header.params_use)
    };
    let code = if ser {
        if header.params_decl.is_empty() {
            format!("impl ::serde::Serialize for {ty} {{}}")
        } else {
            format!(
                "impl<{}> ::serde::Serialize for {ty} {{}}",
                header.params_decl
            )
        }
    } else if header.params_decl.is_empty() {
        format!("impl<'de> ::serde::Deserialize<'de> for {ty} {{}}")
    } else {
        format!(
            "impl<'de, {}> ::serde::Deserialize<'de> for {ty} {{}}",
            header.params_decl
        )
    };
    code.parse().expect("generated impl parses")
}

/// Derives the `serde::Serialize` marker impl.
#[proc_macro_derive(Serialize, attributes(serde))]
pub fn derive_serialize(input: TokenStream) -> TokenStream {
    empty_impls(input, true)
}

/// Derives the `serde::Deserialize` marker impl.
#[proc_macro_derive(Deserialize, attributes(serde))]
pub fn derive_deserialize(input: TokenStream) -> TokenStream {
    empty_impls(input, false)
}
